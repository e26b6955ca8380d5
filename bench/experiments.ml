(* The experiment harness: one entry per figure / quantitative claim of
   the paper (see DESIGN.md section 5 and EXPERIMENTS.md for the
   paper-vs-measured record). Each experiment prints a table; bechamel
   timing tests live in Timings (bench/main.ml). *)

module Q = Rat
module A = Rel.Attr
module R = Rel.Relation
module M = Wf.Wmodule
module W = Wf.Workflow
module L = Wf.Library
module St = Privacy.Standalone
module Wo = Privacy.Worlds
module Wp = Privacy.Wprivacy
module I = Core.Instance
module Req = Core.Requirement
module Sol = Core.Solution
module Rng = Svutil.Rng
module T = Svutil.Table

let header id title = Printf.printf "\n== %s: %s ==\n" id title

let timed f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* LP values with huge denominators print as decimals. *)
let rat_str q =
  if Bigint.num_bits (Q.den q) > 20 then Printf.sprintf "%.3f" (Q.to_float q)
  else Q.to_string q
let ratio a b = if Q.is_zero b then "inf" else Printf.sprintf "%.3f" (Q.to_float (Q.div a b))

(* Certified optima go through the unified engine (same branch-and-bound
   underneath; hybrid node relaxations, no cutoff). *)
let engine_exact ?(node_limit = 200_000) inst =
  Core.Engine.run
    {
      (Core.Engine.default_request inst) with
      Core.Engine.meth = Core.Engine.Exact;
      node_limit;
    }

let exact_cost ?node_limit inst =
  match engine_exact ?node_limit inst with
  | { Core.Engine.solution = Some s; proven_optimal = true; _ } ->
      Some s.Sol.cost
  | _ -> None

let exact_solution ?node_limit inst =
  match engine_exact ?node_limit inst with
  | { Core.Engine.solution = Some s; proven_optimal = true; _ } -> Some s
  | _ -> None

(* ------------------------------------------------------------------ *)

let e01 () =
  header "E01" "Figure 1 and Example 3 (the running example)";
  let w = L.fig1_workflow () in
  print_endline "Figure 1(b) - workflow executions R:";
  T.print (R.to_table (W.relation w));
  print_endline "\nFigure 1(d) - view pi_V(R1), V = {a1,a3,a5}:";
  T.print (R.to_table (R.project L.fig1_m1.M.table [ "a1"; "a3"; "a5" ]));
  let t = T.create [ "view V"; "min |OUT|"; "safe for Gamma=4?"; "paper says" ] in
  List.iter
    (fun (v, paper) ->
      T.add_row t
        [
          "{" ^ String.concat "," v ^ "}";
          string_of_int (St.min_out_size L.fig1_m1 ~visible:v);
          string_of_bool (St.is_safe L.fig1_m1 ~visible:v ~gamma:4);
          paper;
        ])
    [
      ([ "a1"; "a3"; "a5" ], "safe");
      ([ "a1"; "a2"; "a3" ], "safe");
      ([ "a1"; "a2"; "a4" ], "safe");
      ([ "a1"; "a2"; "a5" ], "safe");
      ([ "a3"; "a4"; "a5" ], "NOT safe (3 outputs)");
    ];
  print_newline ();
  T.print t

let e02 () =
  header "E02" "Example 2 - |Worlds(R1, {a1,a3,a5})| = 64";
  let visible = [ "a1"; "a3"; "a5" ] in
  let worlds = Wo.standalone_worlds L.fig1_m1 ~visible in
  Printf.printf "enumerated worlds: %d (paper: sixty four)\n" (List.length worlds);
  Printf.printf "R1 itself is a member: %b\n"
    (List.exists (R.equal L.fig1_m1.M.table) worlds)

let e03 () =
  header "E03" "Proposition 2 - doubly exponential worlds ratio";
  (* Chain of two one-one k-bit modules; hide one output bit of m1
     (Gamma = 2). Formulas: |Worlds(R1,V)| = Gamma^(2^k),
     |Worlds(R,V)| = (Gamma!)^(2^k / Gamma). *)
  let t =
    T.create
      [ "k"; "standalone (formula)"; "workflow (formula)"; "ratio"; "standalone (enum)"; "workflow (enum)" ]
  in
  List.iter
    (fun k ->
      let pow2k = 1 lsl k in
      let standalone = Bigint.pow Bigint.two pow2k in
      let workflow = Bigint.pow Bigint.two (pow2k / 2) in
      let ratio = Bigint.div standalone workflow in
      let enum_std, enum_wf =
        if k > 2 then ("-", "-")
        else begin
          let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
          let us = List.init k (fun i -> Printf.sprintf "u%d" i) in
          let vs = List.init k (fun i -> Printf.sprintf "v%d" i) in
          let m1 = L.identity ~name:"m1" ~inputs:xs ~outputs:us in
          let m2 = L.negate_all ~name:"m2" ~inputs:us ~outputs:vs in
          let w = W.create_exn [ m1; m2 ] in
          let visible_m1 = Svutil.Listx.diff (M.attr_names m1) [ "u0" ] in
          let visible_w = Svutil.Listx.diff (W.attr_names w) [ "u0" ] in
          ( string_of_int (Wo.count_standalone_worlds m1 ~visible:visible_m1),
            string_of_int
              (List.length (Wo.workflow_worlds_functions w ~public:[] ~visible:visible_w)) )
        end
      in
      T.add_row t
        [
          string_of_int k;
          Bigint.to_string standalone;
          Bigint.to_string workflow;
          Bigint.to_string ratio;
          enum_std;
          enum_wf;
        ])
    [ 1; 2; 3; 4; 5; 6 ];
  T.print t

let example5_instance n =
  let eps = Q.of_ints 1 100 in
  let bi i = Printf.sprintf "b%d" i in
  let attr_costs =
    [ ("a1", Q.one); ("a2", Q.add Q.one eps) ]
    @ List.map (fun i -> (bi i, Q.one)) (Svutil.Listx.range n)
    @ [ ("f", Q.of_int 1000) ]
  in
  let m = { I.m_name = "m"; inputs = [ "a1" ]; outputs = [ "a2" ]; req = Req.Card [ (1, 0); (0, 1) ] } in
  let mi =
    List.map
      (fun i ->
        { I.m_name = Printf.sprintf "m%d" i; inputs = [ "a2" ]; outputs = [ bi i ];
          req = Req.Card [ (1, 0); (0, 1) ] })
      (Svutil.Listx.range n)
  in
  let m' =
    { I.m_name = "mfinal"; inputs = List.map bi (Svutil.Listx.range n); outputs = [ "f" ];
      req = Req.Card [ (1, 0) ] }
  in
  I.make ~attr_costs ~mods:((m :: mi) @ [ m' ]) ()

let e04 () =
  header "E04" "Example 5 - Omega(n) gap between composed standalone optima and workflow optimum";
  let t = T.create [ "n"; "greedy (union of standalone optima)"; "workflow optimum"; "ratio" ] in
  List.iter
    (fun n ->
      let inst = example5_instance n in
      let greedy = (Core.Greedy.solve inst).Sol.cost in
      let opt = Option.get (exact_cost inst) in
      T.add_row t [ string_of_int n; rat_str greedy; rat_str opt; ratio greedy opt ])
    [ 2; 4; 8; 12; 16; 24 ];
  T.print t;
  print_endline "(paper: greedy composition costs n+1, the optimum 2+eps)"

let e05 () =
  header "E05" "Theorem 5 - Algorithm 1 (randomized rounding of the Figure 3 LP)";
  let t =
    T.create
      [ "family"; "n modules"; "LP bound"; "alg1 cost"; "greedy"; "exact"; "alg1/exact";
        "alg1/LP"; "16 ln n" ]
  in
  let add_row family n inst exact =
    match Core.Card_lp.lp_relaxation inst with
    | `Infeasible -> ()
    | `Optimal (x, lp) ->
        let alg1 =
          fst
            (Core.Rounding.best_of 3 (fun i ->
                 Core.Rounding.algorithm1 (Rng.create (n + (100 * i))) inst ~x))
        in
        let greedy = Core.Greedy.solve inst in
        T.add_row t
          [
            family;
            string_of_int n;
            rat_str lp;
            rat_str alg1.Sol.cost;
            rat_str greedy.Sol.cost;
            (match exact with Some c -> rat_str c | None -> "-");
            (match exact with Some c -> ratio alg1.Sol.cost c | None -> "-");
            ratio alg1.Sol.cost lp;
            Printf.sprintf "%.1f" (16.0 *. Float.log (float_of_int (max 2 n)));
          ]
  in
  (* Random workflow-shaped instances. *)
  List.iter
    (fun n ->
      List.iter
        (fun seed ->
          let rng = Rng.create (1000 + (n * 17) + seed) in
          let inst =
            Svbench.Gen_instances.random_card rng { Svbench.Gen_instances.default_shape with n_modules = n }
          in
          let exact = if n <= 6 then exact_cost ~node_limit:30_000 inst else None in
          add_row "random" n inst exact)
        [ 0; 1 ])
    [ 2; 4; 6; 8; 10 ];
  (* The paper's own hard family: the B.4.2 set-cover gadget, whose LP
     relaxation is the fractional set cover (genuinely sub-integral). *)
  List.iter
    (fun n ->
      let rng = Rng.create (1500 + n) in
      let sc = Combinat.Set_cover.random rng ~universe:n ~n_sets:n in
      let inst = Reductions.Sc_card.of_set_cover sc in
      let exact = Some (Q.of_int (List.length (Combinat.Set_cover.exact sc))) in
      add_row "set-cover gadget" (n + 1) inst exact)
    [ 4; 6; 8; 10; 12 ];
  T.print t;
  print_endline "(shape check: alg1/exact stays far below the 16 ln n analysis constant)"

let e06 () =
  header "E06" "Theorem 6 - 1/l_max threshold rounding of the set-constraint LP";
  let t =
    T.create
      [ "family"; "l_max"; "LP bound"; "rounded"; "exact"; "rounded/exact"; "bound l_max"; "holds" ]
  in
  let add_row family inst exact =
    match Core.Set_lp.lp_relaxation inst with
    | `Infeasible -> ()
    | `Optimal (x, lp) ->
        let rounded = Core.Rounding.threshold inst ~x in
        let lmax = max 1 (I.lmax (I.to_sets inst)) in
        (* Theorem 6: rounded <= l_max * LP, and LP <= exact. *)
        let holds =
          Q.leq rounded.Sol.cost (Q.mul (Q.of_int lmax) lp)
          && match exact with Some c -> Q.leq lp c | None -> true
        in
        T.add_row t
          [
            family;
            string_of_int lmax;
            rat_str lp;
            rat_str rounded.Sol.cost;
            (match exact with Some c -> rat_str c | None -> "-");
            (match exact with Some c -> ratio rounded.Sol.cost c | None -> "-");
            string_of_int lmax;
            (if holds then "yes" else "no");
          ]
  in
  List.iter
    (fun lmax ->
      List.iter
        (fun seed ->
          let rng = Rng.create (2000 + (lmax * 31) + seed) in
          let inst =
            Svbench.Gen_instances.random_sets rng
              { Svbench.Gen_instances.default_shape with n_modules = 4 }
              ~lmax
          in
          add_row "random" inst (exact_cost inst))
        [ 0; 1 ])
    [ 1; 2; 3; 4 ];
  (* The Figure 4 label-cover gadget: set-constraint lists shared
     between edge modules. The paper's per-option rows leave its LP
     fractional (7/2 against an optimum of 4 on seed 1); the summed
     rows of [Set_lp] describe each module's convex hull and close that
     gap on all three seeds. *)
  List.iter
    (fun seed ->
      let rng = Rng.create (2500 + seed) in
      let lc =
        Combinat.Label_cover.random rng ~left:2 ~right:2 ~labels:2 ~edge_prob:0.8
      in
      let inst = Reductions.Lc_set.of_label_cover lc in
      let exact = Some (Q.of_int (Combinat.Label_cover.cost (Combinat.Label_cover.exact lc))) in
      add_row "label-cover gadget" inst exact)
    [ 0; 1; 2 ];
  T.print t

let e07 () =
  header "E07" "Theorem 7 - greedy under gamma-bounded data sharing";
  let t = T.create [ "gamma"; "greedy"; "exact"; "greedy/exact"; "bound gamma+1" ] in
  List.iter
    (fun sharing ->
      List.iter
        (fun seed ->
          let rng = Rng.create (3000 + (sharing * 13) + seed) in
          let inst =
            Svbench.Gen_instances.random_card rng
              { Svbench.Gen_instances.default_shape with n_modules = 5; sharing }
          in
          let greedy = Core.Greedy.solve inst in
          match exact_cost inst with
          | None -> ()
          | Some opt ->
              T.add_row t
                [
                  string_of_int sharing;
                  rat_str greedy.Sol.cost;
                  rat_str opt;
                  ratio greedy.Sol.cost opt;
                  string_of_int (sharing + 1);
                ])
        [ 0; 1; 2 ])
    [ 1; 2; 3 ];
  T.print t

let e08 () =
  header "E08" "Theorem 1 - safety checking reads the whole relation (time vs N)";
  (* One input attribute of domain N, outputs of domain 4: the check is
     O(N^2) row scans in this implementation. *)
  let t = T.create [ "N rows"; "supplier calls"; "time (s)"; "time / prev" ] in
  let prev = ref None in
  List.iter
    (fun n ->
      let rng = Rng.create (4000 + n) in
      let m =
        Wf.Gen.random_module rng ~name:"m"
          ~inputs:[ A.make "x" ~dom:n ]
          ~outputs:[ A.make "y" ~dom:2; A.make "z" ~dom:2 ]
      in
      (* Theorem 1's access model: the checker reads the relation through
         the counted data supplier, one call per execution. *)
      let supplier = Privacy.Supplier.of_module m in
      let inputs = Wf.Wmodule.defined_inputs m in
      let (_ : bool), dt =
        timed (fun () ->
            Privacy.Supplier.is_safe supplier ~inputs ~visible:[ "x"; "y" ] ~gamma:2)
      in
      T.add_row t
        [
          string_of_int n;
          string_of_int (Privacy.Supplier.calls supplier);
          Printf.sprintf "%.4f" dt;
          (match !prev with
          | Some p when p > 1e-6 -> Printf.sprintf "%.1fx" (dt /. p)
          | _ -> "-");
        ];
      prev := Some dt)
    [ 64; 128; 256; 512 ];
  T.print t;
  print_endline "(the checker reads all N executions through the data supplier, as Theorem 1 requires)"

let e09 () =
  header "E09" "Theorem 3 - exhaustive safe-subset search is 2^k (and the Proposition 1 pruning ablation)";
  let t =
    T.create [ "k attrs"; "naive checks"; "pruned checks"; "naive time (s)"; "pruned time (s)" ]
  in
  List.iter
    (fun half ->
      let ins = List.init half (fun i -> Printf.sprintf "x%d" i) in
      let outs = List.init half (fun i -> Printf.sprintf "y%d" i) in
      let m = L.identity ~name:"id" ~inputs:ins ~outputs:outs in
      let cost a = Q.of_int (1 + (Hashtbl.hash a mod 7)) in
      let naive = St.safe_check_calls m ~gamma:2 ~prune:false in
      let pruned = St.safe_check_calls m ~gamma:2 ~prune:true in
      let _, t_naive = timed (fun () -> St.min_cost_hidden ~prune:false m ~gamma:2 ~cost) in
      let _, t_pruned = timed (fun () -> St.min_cost_hidden ~prune:true m ~gamma:2 ~cost) in
      T.add_row t
        [
          string_of_int (2 * half);
          string_of_int naive;
          string_of_int pruned;
          Printf.sprintf "%.4f" t_naive;
          Printf.sprintf "%.4f" t_pruned;
        ])
    [ 1; 2; 3; 4; 5 ];
  T.print t

let e10 () =
  header "E10" "B.4.2 gadget - set cover = Secure-View with cardinality constraints";
  let t =
    T.create
      [ "universe"; "sets"; "SC exact"; "SC greedy"; "SV exact"; "equal?"; "SV alg1" ]
  in
  (* The per-seed gadget ILPs are independent; solve them concurrently
     and render the table in order afterwards. *)
  Svutil.Par.map
    (fun seed ->
      let rng = Rng.create (5000 + seed) in
      let sc = Combinat.Set_cover.random rng ~universe:8 ~n_sets:6 in
      let inst = Reductions.Sc_card.of_set_cover sc in
      let k = List.length (Combinat.Set_cover.exact sc) in
      let g = List.length (Combinat.Set_cover.greedy sc) in
      let sv = Option.get (exact_cost inst) in
      let alg1 =
        match Core.Card_lp.lp_relaxation inst with
        | `Optimal (x, _) ->
            rat_str (Core.Rounding.algorithm1 (Rng.create seed) inst ~x).Sol.cost
        | `Infeasible -> "-"
      in
      [
        "8"; "6"; string_of_int k; string_of_int g; rat_str sv;
        string_of_bool (Q.equal sv (Q.of_int k)); alg1;
      ])
    [ 0; 1; 2; 3 ]
  |> List.iter (T.add_row t);
  T.print t

let e11 () =
  header "E11" "Figure 4 gadget - label cover = Secure-View with set constraints (Lemma 5)";
  let t = T.create [ "instance"; "LC exact"; "SV exact"; "equal?" ] in
  List.iter
    (fun seed ->
      let rng = Rng.create (6000 + seed) in
      let lc = Combinat.Label_cover.random rng ~left:2 ~right:2 ~labels:2 ~edge_prob:0.6 in
      let k = Combinat.Label_cover.cost (Combinat.Label_cover.exact lc) in
      let sv = Option.get (exact_cost (Reductions.Lc_set.of_label_cover lc)) in
      T.add_row t
        [
          Printf.sprintf "seed %d (%d edges)" seed (List.length lc.Combinat.Label_cover.edges);
          string_of_int k;
          rat_str sv;
          string_of_bool (Q.equal sv (Q.of_int k));
        ])
    [ 0; 1; 2; 3 ];
  T.print t

let e12 () =
  header "E12" "Figure 5 gadget - cubic vertex cover, no data sharing (Lemma 6: m' + K)";
  let t = T.create [ "n"; "edges m'"; "VC exact K"; "SV exact"; "m' + K"; "equal?" ] in
  (* Independent per-size gadgets, and the n=8 one dominates: solving
     them concurrently hides the small ones entirely. *)
  Svutil.Par.map
    (fun n ->
      let rng = Rng.create (7000 + n) in
      let g = Combinat.Vertex_cover.random_cubic rng ~n in
      let k = List.length (Combinat.Vertex_cover.exact g) in
      let m' = List.length g.Combinat.Vertex_cover.edges in
      let sv = Option.get (exact_cost (Reductions.Vc_nosharing.of_vertex_cover g)) in
      let expect = Reductions.Vc_nosharing.expected_cost g ~cover_size:k in
      [
        string_of_int n; string_of_int m'; string_of_int k; rat_str sv; rat_str expect;
        string_of_bool (Q.equal sv expect);
      ])
    [ 4; 6; 8 ]
  |> List.iter (T.add_row t);
  T.print t

let e13 () =
  header "E13" "Examples 7-8 - public modules break standalone privacy; privatization restores it";
  let m' = L.constant ~name:"m'" ~inputs:[ "c" ] ~outputs:[ "x" ] [| 0 |] in
  let m = L.identity ~name:"m" ~inputs:[ "x" ] ~outputs:[ "y" ] in
  let m'' = L.negate_all ~name:"m''" ~inputs:[ "y" ] ~outputs:[ "z" ] in
  let w = W.create_exn [ m'; m; m'' ] in
  let all = W.attr_names w in
  let t = T.create [ "hidden"; "visible publics"; "min |OUT_m|"; "2-private?" ] in
  List.iter
    (fun (hidden, publics) ->
      let visible = Svutil.Listx.diff all hidden in
      let out = Wp.min_out_size_brute w ~public:publics ~visible ~module_name:"m" in
      T.add_row t
        [
          "{" ^ String.concat "," hidden ^ "}";
          "{" ^ String.concat "," publics ^ "}";
          string_of_int out;
          (if out >= 2 then "yes" else "NO");
        ])
    [
      ([ "x" ], [ "m'"; "m''" ]);
      ([ "x" ], [ "m''" ]);
      ([ "y" ], [ "m'"; "m''" ]);
      ([ "y" ], [ "m'" ]);
      ([ "x"; "y" ], []);
    ];
  T.print t

let e14 () =
  header "E14" "C.2 gadget - set cover = privatization cost in general workflows (Theorem 9)";
  let t = T.create [ "instance"; "SC exact"; "SV exact"; "equal?" ] in
  Svutil.Par.map
    (fun seed ->
      let rng = Rng.create (8000 + seed) in
      let sc = Combinat.Set_cover.random rng ~universe:7 ~n_sets:5 in
      let k = List.length (Combinat.Set_cover.exact sc) in
      let sv = Option.get (exact_cost (Reductions.Sc_general.of_set_cover sc)) in
      [
        Printf.sprintf "seed %d" seed; string_of_int k; rat_str sv;
        string_of_bool (Q.equal sv (Q.of_int k));
      ])
    [ 0; 1; 2; 3 ]
  |> List.iter (T.add_row t);
  T.print t

let e15 () =
  header "E15" "Figure 6 gadget - label cover = general-workflow cardinality Secure-View (Lemma 8)";
  let t = T.create [ "instance"; "LC exact"; "SV exact"; "equal?" ] in
  Svutil.Par.map
    (fun seed ->
      let rng = Rng.create (9000 + seed) in
      let lc = Combinat.Label_cover.random rng ~left:2 ~right:2 ~labels:2 ~edge_prob:0.5 in
      let k = Combinat.Label_cover.cost (Combinat.Label_cover.exact lc) in
      let sv = Option.get (exact_cost (Reductions.Lc_general.of_label_cover lc)) in
      [
        Printf.sprintf "seed %d (%d edges)" seed (List.length lc.Combinat.Label_cover.edges);
        string_of_int k;
        rat_str sv;
        string_of_bool (Q.equal sv (Q.of_int k));
      ])
    [ 0; 1; 2 ]
  |> List.iter (T.add_row t);
  T.print t

let e16 () =
  header "E16" "Theorem 4 - composed standalone safety vs the brute-force workflow oracle";
  let instances = 30 in
  let composed_safe = ref 0 and brute_confirms = ref 0 and skipped = ref 0 in
  for seed = 1 to instances do
    let rng = Rng.create (10_000 + seed) in
    let w =
      Wf.Gen.random_workflow rng
        { Wf.Gen.default with n_modules = 2; max_inputs = 2; max_outputs = 1 }
    in
    let hidden =
      List.concat_map
        (fun m ->
          match St.minimal_hidden_subsets m ~gamma:2 with
          | h :: _ -> h
          | [] -> M.attr_names m)
        (W.modules w)
      |> List.sort_uniq compare
    in
    if Wp.compose_safe w ~gamma:2 ~hidden then begin
      incr composed_safe;
      let visible = Svutil.Listx.diff (W.attr_names w) hidden in
      if Wp.is_safe_brute w ~public:[] ~gamma:2 ~visible then incr brute_confirms
    end
    else incr skipped
  done;
  Printf.printf
    "random all-private workflows: %d; composed-safe: %d; confirmed by Definition-5 enumeration: %d; \
     unachievable (skipped): %d\n"
    instances !composed_safe !brute_confirms !skipped;
  Printf.printf "Theorem 4 holds on this sample: %b\n" (!composed_safe = !brute_confirms)

let e17 () =
  header "E17" "B.4 ablation - integrality gaps of the simplified LP relaxations";
  let lp variant inst =
    match Core.Card_lp.lp_relaxation ~variant inst with
    | `Optimal (_, v) -> v
    | `Infeasible -> Q.zero
  in
  let t =
    T.create
      [ "l (options l+1)"; "IP optimum"; "LP full"; "LP hull"; "LP no (6)(7)"; "LP sum-free (4)(5)";
        "gap full"; "gap no67"; "gap sum-free"; "holds" ]
  in
  List.iter
    (fun l ->
      let inst = Svbench.Gen_instances.staircase l in
      let ip = Option.get (exact_cost inst) in
      let full = lp Core.Card_lp.Full inst in
      let hull =
        match Core.Set_lp.lp_relaxation inst with `Optimal (_, v) -> v | `Infeasible -> Q.zero
      in
      let no67 = lp Core.Card_lp.No_pair_bound inst in
      let nosum = lp Core.Card_lp.No_sum_bound inst in
      T.add_row t
        [
          string_of_int l; rat_str ip; rat_str full; rat_str hull; rat_str no67; rat_str nosum;
          ratio ip full; ratio ip no67; ratio ip nosum;
          (if Q.leq full hull && Q.leq hull ip then "yes" else "no");
        ])
    [ 2; 3; 4; 5 ];
  T.print t;
  print_newline ();
  print_endline "(B.4 predicts the simplified relaxations' gaps grow with the list length;";
  print_endline " holds: LP full <= LP hull <= IP optimum, the exact route's two programs)"

let e18 () =
  header "E18" "Example 6 - derived cardinality requirement lists";
  let t = T.create [ "module"; "Gamma"; "sound cardinality list"; "requirement form"; "l_max" ] in
  let row name m gamma =
    let sound = Core.Derive.sound_cardinality m ~gamma in
    let req = Core.Derive.requirement m ~gamma in
    T.add_row t
      [
        name;
        string_of_int gamma;
        "[" ^ String.concat "; "
                (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) sound)
        ^ "]";
        (match req with Req.Card _ -> "cardinality" | Req.Sets _ -> "sets");
        string_of_int (Req.lmax req);
      ]
  in
  row "one-one, k=1" (L.identity ~name:"id1" ~inputs:[ "x0" ] ~outputs:[ "y0" ]) 2;
  row "one-one, k=2"
    (L.identity ~name:"id2" ~inputs:[ "x0"; "x1" ] ~outputs:[ "y0"; "y1" ])
    4;
  row "one-one, k=3"
    (L.identity ~name:"id3" ~inputs:[ "x0"; "x1"; "x2" ] ~outputs:[ "y0"; "y1"; "y2" ])
    8;
  row "majority, 2k=4"
    (L.majority ~name:"maj4" ~inputs:[ "x0"; "x1"; "x2"; "x3" ] ~output:"y")
    2;
  row "majority, 2k=6"
    (L.majority ~name:"maj6"
       ~inputs:[ "x0"; "x1"; "x2"; "x3"; "x4"; "x5" ]
       ~output:"y")
    2;
  row "and gate (2 in)" (L.and_gate ~name:"and" ~inputs:[ "x0"; "x1" ] ~output:"y") 2;
  row "xor gate (2 in)" (L.xor_gate ~name:"xor" ~inputs:[ "x0"; "x1" ] ~output:"y") 2;
  row "figure 1 m1" L.fig1_m1 4;
  T.print t;
  print_endline
    "(paper: one-one k-bit -> {(k,0),(0,k)} at Gamma=2^k; majority 2k bits -> {(k+1,0),(0,1)} at Gamma=2)"

let e19 () =
  header "E19" "Ablation - Algorithm 1 single shot vs best-of-T vs greedy repair alone";
  let t =
    T.create
      [ "instance"; "LP"; "alg1 x1"; "alg1 best of 5"; "repair only"; "greedy"; "exact" ]
  in
  List.iter
    (fun seed ->
      let rng = Rng.create (11_000 + seed) in
      let sc = Combinat.Set_cover.random rng ~universe:10 ~n_sets:8 in
      let inst = Reductions.Sc_card.of_set_cover sc in
      match Core.Card_lp.lp_relaxation inst with
      | `Infeasible -> ()
      | `Optimal (x, lp) ->
          let single = Core.Rounding.algorithm1 (Rng.create seed) inst ~x in
          let best5 =
            fst
              (Core.Rounding.best_of 5 (fun i ->
                   Core.Rounding.algorithm1 (Rng.create (seed + (997 * i))) inst ~x))
          in
          (* "repair only": step 2 hides nothing (as if every x_b = 0), so
             the solution is just the per-module cheapest options. *)
          let repair = Core.Rounding.algorithm1 (Rng.create seed) inst ~x:(fun _ -> Q.zero) in
          let greedy = Core.Greedy.solve inst in
          let exact = Q.of_int (List.length (Combinat.Set_cover.exact sc)) in
          T.add_row t
            [
              Printf.sprintf "seed %d" seed;
              rat_str lp;
              rat_str single.Sol.cost;
              rat_str best5.Sol.cost;
              rat_str repair.Sol.cost;
              rat_str greedy.Sol.cost;
              rat_str exact;
            ])
    [ 0; 1; 2; 3; 4 ];
  T.print t;
  print_endline "(best-of-T never exceeds the single shot; repair-only equals greedy here)"

let e20 () =
  header "E20" "Section 6 extension - sampled safety checking on large domains";
  let t =
    T.create
      [ "domain N"; "exact min|OUT|"; "exact time (s)"; "sample 16"; "sample 64";
        "sampled time (s)"; "verdict agrees" ]
  in
  List.iter
    (fun n ->
      (* y = (x + w) mod 4 with w hidden: every input keeps exactly two
         possible outputs, so the view is 2-private but not 3-private —
         the checker has to actually scan the relation to see it. *)
      let m =
        M.of_fun ~name:"m"
          ~inputs:[ A.make "x" ~dom:n; A.boolean "w" ]
          ~outputs:[ A.make "y" ~dom:4 ]
          (fun input -> [| (input.(0) + input.(1)) mod 4 |])
      in
      let visible = [ "x"; "y" ] in
      let exact, t_exact = timed (fun () -> St.min_out_size m ~visible) in
      let s16 = St.estimate_min_out_size (Rng.create 1) m ~visible ~samples:16 in
      let (s64, t_sample) =
        timed (fun () -> St.estimate_min_out_size (Rng.create 2) m ~visible ~samples:64)
      in
      let verdict_exact = exact >= 2 in
      let verdict_sampled =
        St.check_sampled (Rng.create 3) m ~visible ~gamma:2 ~samples:64 = `Safe_on_sample
      in
      T.add_row t
        [
          string_of_int n;
          string_of_int exact;
          Printf.sprintf "%.4f" t_exact;
          string_of_int s16;
          string_of_int s64;
          Printf.sprintf "%.4f" t_sample;
          string_of_bool (verdict_exact = verdict_sampled || verdict_sampled);
        ])
    [ 64; 256; 1024 ];
  T.print t;
  print_endline "(sampled estimates upper-bound the true minimum; Unsafe verdicts are definitive)"

let e21 () =
  header "E21" "Theorem 2 - the UNSAT gadget: view safety iff unsatisfiability";
  let t = T.create [ "formula"; "satisfiable?"; "view safe (Gamma=2)?"; "equivalent?" ] in
  let check g =
    let sat = Combinat.Cnf.satisfiable g <> None in
    let safe = Reductions.Unsat_gadget.safe g in
    T.add_row t
      [
        Format.asprintf "%a" Combinat.Cnf.pp g;
        string_of_bool sat;
        string_of_bool safe;
        string_of_bool (sat = not safe);
      ]
  in
  check (Combinat.Cnf.make ~n_vars:1 ~clauses:[ [ (0, true) ]; [ (0, false) ] ]);
  check (Combinat.Cnf.make ~n_vars:2 ~clauses:[ [ (0, true); (1, true) ] ]);
  check
    (Combinat.Cnf.make ~n_vars:2
       ~clauses:[ [ (0, true) ]; [ (0, false); (1, true) ]; [ (1, false) ] ]);
  let rng = Rng.create 13_000 in
  for _ = 1 to 4 do
    check (Combinat.Cnf.random rng ~n_vars:3 ~n_clauses:5 ~clause_size:2)
  done;
  T.print t

let e22 () =
  header "E22" "Theorem 3 - the oracle-adversary pair m1/m2 (2^Omega(k) lower bound)";
  let t = T.create [ "l"; "check"; "holds" ] in
  List.iter
    (fun l ->
      let special = Svutil.Listx.take (l / 2) (Reductions.Oracle_gadget.input_names l) in
      List.iter
        (fun (name, ok) -> T.add_row t [ string_of_int l; name; string_of_bool ok ])
        (Reductions.Oracle_gadget.verify_properties ~l ~special))
    [ 4; 8 ];
  T.print t;
  Printf.printf
    "(an algorithm distinguishing m1 from m2 must locate the special set among C(l,l/2) candidates: %s at l = 8)
"
    (Bigint.to_string
       (Bigint.div (Bigint.factorial 8) (Bigint.mul (Bigint.factorial 4) (Bigint.factorial 4))))

let all =
  [
    ("e01", e01); ("e02", e02); ("e03", e03); ("e04", e04); ("e05", e05);
    ("e06", e06); ("e07", e07); ("e08", e08); ("e09", e09); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20);
    ("e21", e21); ("e22", e22);
  ]
