module Q = Rat
module Req = Core.Requirement
module Inst = Core.Instance
module Der = Core.Derive
module Sol = Core.Solution
module L = Wf.Library
module St = Privacy.Standalone

let q = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Requirements                                                        *)
(* ------------------------------------------------------------------ *)

let test_normalize_card () =
  Alcotest.(check (list (pair int int)))
    "dominated dropped" [ (0, 2); (1, 1); (2, 0) ]
    (Req.normalize_card [ (2, 0); (2, 2); (1, 1); (0, 2); (2, 1) ])

let test_normalize_sets () =
  let norm = Req.normalize_sets [ ([ "a" ], []); ([ "a"; "b" ], []); ([], [ "c" ]) ] in
  Alcotest.(check int) "superset dropped" 2 (List.length norm);
  Alcotest.(check bool) "keeps a" true (List.mem ([ "a" ], []) norm);
  Alcotest.(check bool) "keeps c" true (List.mem ([], [ "c" ]) norm)

let test_is_satisfied () =
  let inputs = [ "a"; "b" ] and outputs = [ "c" ] in
  let card = Req.Card [ (2, 0); (0, 1) ] in
  Alcotest.(check bool) "two inputs" true
    (Req.is_satisfied card ~inputs ~outputs ~hidden:[ "a"; "b" ]);
  Alcotest.(check bool) "output" true
    (Req.is_satisfied card ~inputs ~outputs ~hidden:[ "c" ]);
  Alcotest.(check bool) "one input insufficient" false
    (Req.is_satisfied card ~inputs ~outputs ~hidden:[ "a" ]);
  let sets = Req.Sets [ ([ "a" ], [ "c" ]) ] in
  Alcotest.(check bool) "set option" true
    (Req.is_satisfied sets ~inputs ~outputs ~hidden:[ "a"; "c"; "b" ]);
  Alcotest.(check bool) "partial set" false
    (Req.is_satisfied sets ~inputs ~outputs ~hidden:[ "a" ])

let test_card_to_sets () =
  let sets = Req.card_to_sets ~inputs:[ "a"; "b" ] ~outputs:[ "c" ] [ (1, 0); (0, 1) ] in
  Alcotest.(check int) "three options" 3 (List.length sets);
  Alcotest.(check bool) "a" true (List.mem ([ "a" ], []) sets);
  Alcotest.(check bool) "b" true (List.mem ([ "b" ], []) sets);
  Alcotest.(check bool) "c" true (List.mem ([], [ "c" ]) sets)

(* ------------------------------------------------------------------ *)
(* Derivation (Example 6 / E18)                                        *)
(* ------------------------------------------------------------------ *)

let test_derive_one_one () =
  (* One-one module with k=2: Example 6's sound list is {(k,0),(0,k)} for
     Gamma = 2^k. It is not exact — {x1,y2} is also safe — so the full
     requirement falls back to set form. *)
  let id2 = L.identity ~name:"id" ~inputs:[ "x1"; "x2" ] ~outputs:[ "y1"; "y2" ] in
  Alcotest.(check (list (pair int int)))
    "sound pairs" [ (0, 2); (2, 0) ]
    (Der.sound_cardinality id2 ~gamma:4);
  Alcotest.(check bool) "not exact" true (Der.exact_cardinality id2 ~gamma:4 = None);
  (match Der.requirement id2 ~gamma:4 with
  | Req.Sets sets ->
      Alcotest.(check bool) "asymmetric safe set present" true
        (List.mem ([ "x1" ], [ "y2" ]) sets)
  | Req.Card _ -> Alcotest.fail "expected set form");
  (* For Gamma = 2 a single hidden attribute (any) suffices: exact. *)
  Alcotest.(check (list (pair int int)))
    "gamma 2 exact" [ (0, 1); (1, 0) ]
    (Option.get (Der.exact_cardinality id2 ~gamma:2))

let test_derive_majority () =
  (* Majority on 2k inputs: {(k+1,0),(0,1)} for Gamma = 2. *)
  let maj = L.majority ~name:"maj" ~inputs:[ "x1"; "x2"; "x3"; "x4" ] ~output:"y" in
  match Der.requirement maj ~gamma:2 with
  | Req.Card card ->
      Alcotest.(check (list (pair int int))) "pairs" [ (0, 1); (3, 0) ] card
  | Req.Sets _ -> Alcotest.fail "expected cardinality form"

let test_derive_matches_standalone () =
  (* The derived requirement characterizes standalone safety exactly. *)
  let rng = Svutil.Rng.create 7 in
  for _ = 1 to 25 do
    let m =
      Wf.Gen.random_module rng ~name:"m"
        ~inputs:(Rel.Attr.booleans [ "i1"; "i2" ])
        ~outputs:(Rel.Attr.booleans [ "o1" ])
    in
    let req = Der.requirement m ~gamma:2 in
    Svutil.Subset.iter (Wf.Wmodule.attr_names m) (fun hidden ->
        let by_req =
          Req.is_satisfied req ~inputs:[ "i1"; "i2" ] ~outputs:[ "o1" ] ~hidden
        in
        let by_check = St.is_hidden_safe m ~hidden ~gamma:2 in
        if by_req <> by_check then
          Alcotest.failf "mismatch on hidden {%s}" (String.concat "," hidden))
  done

(* The string-list enumeration [Core.Derive] and
   [Standalone.minimal_hidden_subsets] ran before the safety table,
   kept verbatim as the differential reference: every subset is
   re-checked through [Standalone.is_hidden_safe]. *)
module Derive_reference = struct
  module M = Wf.Wmodule
  module Listx = Svutil.Listx

  let minimal_hidden_subsets m ~gamma =
    (* Scan hidden sets by increasing size; a set is minimal iff it is safe
       and contains none of the smaller minimal sets (Proposition 1 makes
       safety upward closed in the hidden set). *)
    let minimal = ref [] in
    List.iter
      (fun hidden ->
        if not (List.exists (fun h -> Listx.is_subset h hidden) !minimal) then
          if St.is_hidden_safe m ~hidden ~gamma then minimal := hidden :: !minimal)
      (Svutil.Subset.by_increasing_size (M.attr_names m));
    List.rev !minimal

  let sets_requirement m ~gamma =
    let inputs = M.input_names m in
    minimal_hidden_subsets m ~gamma
    |> List.map (fun hidden ->
           (Listx.inter hidden inputs, Listx.diff hidden inputs))

  (* Safety of every hidden subset, grouped by profile (|H n I|, |H n O|). *)
  let profile_table m ~gamma =
    let inputs = M.input_names m in
    let profiles = Hashtbl.create 16 in
    Svutil.Subset.iter (M.attr_names m) (fun hidden ->
        let profile =
          ( List.length (Listx.inter hidden inputs),
            List.length (Listx.diff hidden inputs) )
        in
        let safe = St.is_hidden_safe m ~hidden ~gamma in
        let all, any =
          Option.value ~default:(true, false) (Hashtbl.find_opt profiles profile)
        in
        Hashtbl.replace profiles profile (all && safe, any || safe));
    profiles

  let sound_cardinality m ~gamma =
    let profiles = profile_table m ~gamma in
    Hashtbl.fold
      (fun p (all_safe, _) acc -> if all_safe then p :: acc else acc)
      profiles []
    |> Req.normalize_card

  let exact_cardinality m ~gamma =
    let card = sound_cardinality m ~gamma in
    let inputs = M.input_names m and outputs = M.output_names m in
    let exact = ref true in
    Svutil.Subset.iter (M.attr_names m) (fun hidden ->
        let by_card =
          Req.is_satisfied (Req.Card card) ~inputs ~outputs ~hidden
        in
        if by_card <> St.is_hidden_safe m ~hidden ~gamma then exact := false);
    if !exact then Some card else None

  let requirement m ~gamma =
    match exact_cardinality m ~gamma with
    | Some card when card <> [] -> Req.Card card
    | _ -> Req.Sets (sets_requirement m ~gamma)
end

(* Random modules for the differential check: 0-4 inputs and 0-4
   outputs over domains 1-3, a random (possibly empty) part of the
   input domain defined, and Gamma from 1 to 8. *)
let gen_derive_case =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_in = int_range 0 4 in
    let* n_out = int_range 0 4 in
    let* gamma = int_range 1 8 in
    let rng = Svutil.Rng.create seed in
    let attr prefix i = Rel.Attr.make (Printf.sprintf "%s%d" prefix i) ~dom:(1 + Svutil.Rng.int rng 3) in
    (* Input names run against declaration order, so sorting an input
       half by name reorders it. *)
    let inputs = List.init n_in (fun i -> attr "i" (n_in - i)) in
    let outputs = List.init n_out (fun i -> attr "o" (n_out - i)) in
    let density = Svutil.Rng.float rng in
    let defined_on =
      List.filter
        (fun _ -> Svutil.Rng.float rng < density)
        (Rel.Schema.all_tuples (Rel.Schema.of_list inputs))
    in
    let out_tuples = Array.of_list (Rel.Schema.all_tuples (Rel.Schema.of_list outputs)) in
    let m =
      Wf.Wmodule.of_partial_fun ~name:"m" ~inputs ~outputs ~defined_on (fun _ ->
          out_tuples.(Svutil.Rng.int rng (Array.length out_tuples)))
    in
    return (m, gamma))

let show_derive_case (m, gamma) =
  Format.asprintf "gamma %d@.%a" gamma Wf.Wmodule.pp m

let derive_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~print:show_derive_case
         ~name:"derive = string-list enumeration" gen_derive_case
         (fun (m, gamma) ->
           let module R = Derive_reference in
           St.minimal_hidden_subsets m ~gamma = R.minimal_hidden_subsets m ~gamma
           && Der.sets_requirement m ~gamma = R.sets_requirement m ~gamma
           && Der.sound_cardinality m ~gamma = R.sound_cardinality m ~gamma
           && Der.exact_cardinality m ~gamma = R.exact_cardinality m ~gamma
           && Der.requirement m ~gamma = R.requirement m ~gamma));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~print:show_derive_case
         ~name:"safety table = is_hidden_safe" gen_derive_case
         (fun (m, gamma) ->
           let table = St.safety_table m ~gamma in
           let names = Wf.Wmodule.attr_names m in
           List.for_all
             (fun mask ->
               St.hidden_mask_safe table mask
               = St.is_hidden_safe m ~hidden:(Svutil.Subset.of_mask names mask) ~gamma)
             (Svutil.Listx.range (1 lsl List.length names))));
  ]

(* ------------------------------------------------------------------ *)
(* Instances and solutions                                             *)
(* ------------------------------------------------------------------ *)

let simple_instance () =
  Inst.make
    ~attr_costs:[ ("a", Q.one); ("b", Q.two); ("c", Q.of_int 3) ]
    ~mods:
      [
        { Inst.m_name = "m1"; inputs = [ "a" ]; outputs = [ "b" ]; req = Req.Card [ (1, 0); (0, 1) ] };
        { Inst.m_name = "m2"; inputs = [ "b" ]; outputs = [ "c" ]; req = Req.Card [ (1, 0) ] };
      ]
    ()

(* [Instance.to_sets] orders by name rank; the name-level
   [Requirement.to_sets] is its reference. Over the seed-42 corpus,
   renamed so that name order and declaration order disagree, every
   module's converted list must come out equal, order included. *)
let test_to_sets_by_rank () =
  let scramble a = String.make 1 (Char.chr (97 + (Svbench.Corpus.hash31 a mod 26))) ^ a in
  List.iter
    (fun (ir : Svbench.Corpus.inst_rec) ->
      let base = ir.Svbench.Corpus.inst in
      let inst =
        Inst.make
          ~attr_costs:(List.map (fun (a, c) -> (scramble a, c)) (Inst.attr_costs base))
          ~mods:
            (List.map
               (fun (m : Inst.module_req) ->
                 let names = List.map scramble in
                 {
                   m with
                   Inst.inputs = names m.Inst.inputs;
                   outputs = names m.Inst.outputs;
                   req =
                     (match m.Inst.req with
                     | Req.Card _ as c -> c
                     | Req.Sets l -> Req.Sets (List.map (fun (i, o) -> (names i, names o)) l));
                 })
               (Inst.mods base))
          ~publics:
            (List.map
               (fun (p : Inst.public_mod) ->
                 { p with Inst.p_attrs = List.map scramble p.Inst.p_attrs })
               (Inst.publics base))
          ()
      in
      List.iter2
        (fun (m : Inst.module_req) (m' : Inst.module_req) ->
          if
            m'.Inst.req
            <> Req.Sets (Req.to_sets ~inputs:m.Inst.inputs ~outputs:m.Inst.outputs m.Inst.req)
          then Alcotest.failf "%s: module %s converts differently" ir.Svbench.Corpus.id m.Inst.m_name)
        (Inst.mods inst)
        (Inst.mods (Inst.to_sets inst)))
    (Svbench.Corpus.generate ~seed:42 ())

(* [Instance.to_sets] as it converted before it normalized on the id
   arrays: rank lists through [Requirement.card_to_sets] and
   [Requirement.normalize_sets]. The reference for every module's
   options, order included. *)
let reference_set_options (t : Inst.t) =
  let ranks ids = Array.fold_right (fun i acc -> t.Inst.rank.(i) :: acc) ids [] in
  let ids ranks = Array.of_list (List.map (fun r -> t.Inst.by_rank.(r)) ranks) in
  Array.map
    (fun (m : Inst.pmod) ->
      let opts =
        match m.Inst.ireq with
        | Inst.Card l -> Req.card_to_sets ~inputs:(ranks m.Inst.ins) ~outputs:(ranks m.Inst.outs) l
        | Inst.Sets a ->
            Req.normalize_sets (Array.fold_right (fun (i, o) acc -> (ranks i, ranks o) :: acc) a [])
      in
      Inst.Sets (Array.of_list (List.map (fun (i, o) -> (ids i, ids o)) opts)))
    t.Inst.pmods

let to_sets_matches_reference inst =
  let converted = Array.map (fun (m : Inst.pmod) -> m.Inst.ireq) (Inst.to_sets inst).Inst.pmods in
  converted = reference_set_options inst

(* Random instances whose name order disagrees with declaration order,
   with module sides and set options that repeat attributes, options
   that repeat or contain one another, and cardinality lists with sizes
   past the arity. *)
let gen_set_lists =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Svutil.Rng.create seed in
    let n = 1 + Svutil.Rng.int rng 8 in
    let names = List.init n (fun i -> String.make 1 (Char.chr (97 + Svutil.Rng.int rng 26)) ^ string_of_int i) in
    let pick () = List.nth names (Svutil.Rng.int rng n) in
    let some k = List.init k (fun _ -> pick ()) in
    let mods =
      List.init (1 + Svutil.Rng.int rng 4) (fun k ->
          let inputs = some (1 + Svutil.Rng.int rng 3) in
          let outputs = some (1 + Svutil.Rng.int rng 3) in
          let req =
            if Svutil.Rng.int rng 3 = 0 then
              Req.Card (List.init (Svutil.Rng.int rng 4) (fun _ -> (Svutil.Rng.int rng 4, Svutil.Rng.int rng 3)))
            else
              Req.Sets
                (List.init (Svutil.Rng.int rng 7) (fun _ ->
                     (some (Svutil.Rng.int rng 4), some (Svutil.Rng.int rng 3))))
          in
          { Inst.m_name = Printf.sprintf "m%d" k; inputs; outputs; req })
    in
    return (Inst.make ~attr_costs:(List.map (fun a -> (a, Q.one)) names) ~mods ()))

let test_to_sets_on_pools () =
  let module T = Perfbench_traffic.Traffic in
  List.iter
    (fun (name, wl) ->
      List.iteri
        (fun i w ->
          if not (to_sets_matches_reference (T.instance w)) then
            Alcotest.failf "%s pool member %d converts differently" name i)
        (T.pool_workflows wl))
    T.workloads

let test_instance_validation () =
  Alcotest.check_raises "unknown attr"
    (Invalid_argument "Instance.make: m references unknown attribute z") (fun () ->
      ignore
        (Inst.make
           ~attr_costs:[ ("a", Q.one) ]
           ~mods:[ { Inst.m_name = "m"; inputs = [ "z" ]; outputs = []; req = Req.Card [] } ]
           ()));
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Instance.make: negative cost for a") (fun () ->
      ignore (Inst.make ~attr_costs:[ ("a", Q.minus_one) ] ~mods:[] ()))

let test_instance_feasibility () =
  let inst = simple_instance () in
  Alcotest.(check bool) "b satisfies both" true
    (Inst.feasible inst ~hidden:[ "b" ] ~privatized:[]);
  Alcotest.(check bool) "a alone misses m2" false
    (Inst.feasible inst ~hidden:[ "a" ] ~privatized:[]);
  Alcotest.check q "cost" (Q.of_int 3) (Inst.cost inst ~hidden:[ "a"; "b" ] ~privatized:[])

let test_solution_of_hidden_privatizes () =
  let inst =
    Inst.make
      ~attr_costs:[ ("a", Q.one); ("b", Q.one) ]
      ~mods:[ { Inst.m_name = "m"; inputs = [ "a" ]; outputs = [ "b" ]; req = Req.Card [ (1, 0) ] } ]
      ~publics:[ { Inst.p_name = "p"; p_cost = Q.of_int 5; p_attrs = [ "a" ] } ]
      ()
  in
  let s = Sol.of_hidden inst [ "a" ] in
  Alcotest.(check (list string)) "privatized" [ "p" ] s.Sol.privatized;
  Alcotest.check q "cost includes privatization" (Q.of_int 6) s.Sol.cost;
  Alcotest.(check bool) "feasible" true (Sol.is_feasible inst s)

(* ------------------------------------------------------------------ *)
(* Objective (Section 6): utility of the visible data                  *)
(* ------------------------------------------------------------------ *)

let test_objective_accounting () =
  let inst = simple_instance () in
  Alcotest.check q "total" (Q.of_int 6) (Core.Objective.total_utility inst);
  let s = Sol.of_hidden inst [ "b" ] in
  Alcotest.check q "visible = total - hidden" (Q.of_int 4)
    (Core.Objective.visible_utility inst s);
  Alcotest.check q "no publics: net = visible" (Q.of_int 4)
    (Core.Objective.net_utility inst s);
  match Core.Objective.max_visible_utility inst with
  | Some (best, utility) ->
      Alcotest.(check bool) "feasible" true (Sol.is_feasible inst best);
      (* Hiding b (cost 2) is optimal, so max utility is 6 - 2 = 4. *)
      Alcotest.check q "max utility" (Q.of_int 4) utility
  | None -> Alcotest.fail "feasible instance"

let test_objective_with_privatization () =
  let inst =
    Inst.make
      ~attr_costs:[ ("a", Q.one); ("b", Q.one) ]
      ~mods:[ { Inst.m_name = "m"; inputs = [ "a" ]; outputs = [ "b" ]; req = Req.Card [ (1, 0) ] } ]
      ~publics:[ { Inst.p_name = "p"; p_cost = Q.of_int 5; p_attrs = [ "a" ] } ]
      ()
  in
  let s = Sol.of_hidden inst [ "a" ] in
  Alcotest.check q "visible utility ignores penalty" Q.one
    (Core.Objective.visible_utility inst s);
  Alcotest.check q "net utility subtracts privatization" (Q.of_int (-4))
    (Core.Objective.net_utility inst s)

(* ------------------------------------------------------------------ *)
(* Example 5: the data-sharing gap                                     *)
(* ------------------------------------------------------------------ *)

let example5_instance n =
  let eps = Q.of_ints 1 100 in
  let bi i = Printf.sprintf "b%d" i in
  let attr_costs =
    [ ("a1", Q.one); ("a2", Q.add Q.one eps) ]
    @ List.map (fun i -> (bi i, Q.one)) (Svutil.Listx.range n)
    @ [ ("f", Q.of_int 1000) ]
  in
  let m = { Inst.m_name = "m"; inputs = [ "a1" ]; outputs = [ "a2" ]; req = Req.Card [ (1, 0); (0, 1) ] } in
  let mi =
    List.map
      (fun i ->
        {
          Inst.m_name = Printf.sprintf "m%d" i;
          inputs = [ "a2" ];
          outputs = [ bi i ];
          req = Req.Card [ (1, 0); (0, 1) ];
        })
      (Svutil.Listx.range n)
  in
  let m' =
    {
      Inst.m_name = "mfinal";
      inputs = List.map bi (Svutil.Listx.range n);
      outputs = [ "f" ];
      req = Req.Card [ (1, 0) ];
    }
  in
  Inst.make ~attr_costs ~mods:((m :: mi) @ [ m' ]) ()

let test_example5_gap () =
  let n = 5 in
  let inst = example5_instance n in
  let greedy = Core.Greedy.solve inst in
  Alcotest.check q "greedy pays n+1" (Q.of_int (n + 1)) greedy.Sol.cost;
  (match Core.Exact.brute_force inst with
  | Some opt ->
      Alcotest.check q "optimum is 2+eps" (Q.of_string "201/100") opt.Sol.cost
  | None -> Alcotest.fail "instance is feasible");
  match Core.Exact.solve ~mode:Lp.Simplex.Exact_mode inst with
  | Some { solution; proven_optimal } ->
      Alcotest.(check bool) "ilp proves optimality" true proven_optimal;
      Alcotest.check q "ilp matches" (Q.of_string "201/100") solution.Sol.cost
  | None -> Alcotest.fail "ilp should solve"

(* ------------------------------------------------------------------ *)
(* View materialization                                                *)
(* ------------------------------------------------------------------ *)

let test_secure_view_pipeline () =
  let w = L.fig1_workflow () in
  match
    Core.View.secure_view w ~gamma:4
      ~gamma_overrides:[ ("m2", 2); ("m3", 2) ]
      ~cost:(fun _ -> Q.one)
      ()
  with
  | Error e -> Alcotest.failf "pipeline failed: %s" e
  | Ok view ->
      let schema_names = Rel.Schema.names (Rel.Relation.schema view.Core.View.relation) in
      Alcotest.(check (list string)) "schema is the visible set" view.Core.View.visible
        schema_names;
      List.iter
        (fun h ->
          Alcotest.(check bool) (h ^ " not in view") false (List.mem h schema_names))
        view.Core.View.hidden;
      (* The view is the projection of the provenance relation. *)
      let expected = Rel.Relation.project (Wf.Workflow.relation w) view.Core.View.visible in
      Alcotest.(check bool) "projection" true
        (Rel.Relation.equal expected view.Core.View.relation);
      (* All-private workflow: no renaming. *)
      Alcotest.(check bool) "names unchanged" true
        (List.for_all (fun (a, b) -> a = b) view.Core.View.module_names)

let test_secure_view_privatizes_names () =
  let m_pub = L.constant ~name:"mprime" ~inputs:[ "c" ] ~outputs:[ "x" ] [| 0 |] in
  let m_priv = L.identity ~name:"m" ~inputs:[ "x" ] ~outputs:[ "y" ] in
  let w = Wf.Workflow.create_exn [ m_pub; m_priv ] in
  match
    Core.View.secure_view w ~gamma:2
      ~cost:(fun a -> if a = "y" then Q.of_int 10 else Q.one)
      ~publics:[ ("mprime", Q.one) ]
      ()
  with
  | Error e -> Alcotest.failf "pipeline failed: %s" e
  | Ok view ->
      (* Hiding x (cost 1 + privatization 1 = 2) beats hiding y (10). *)
      Alcotest.(check (list string)) "hidden" [ "x" ] view.Core.View.hidden;
      let published = List.assoc "mprime" view.Core.View.module_names in
      Alcotest.(check bool) "renamed" true (published <> "mprime")

let test_secure_view_infeasible () =
  let gate = L.and_gate ~name:"g" ~inputs:[ "x"; "y" ] ~output:"z" in
  let w = Wf.Workflow.create_exn [ gate ] in
  (* Gamma = 4 exceeds the 1-bit output range: infeasible. *)
  match Core.View.secure_view w ~gamma:4 ~cost:(fun _ -> Q.one) () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_secure_view_solvers_agree_on_safety () =
  let w = L.fig1_workflow () in
  List.iter
    (fun solver ->
      match
        Core.View.secure_view w ~gamma:2 ~cost:(fun _ -> Q.one) ~solver ()
      with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "solver failed: %s" e)
    [ `Greedy; `Lp_rounding; `Exact ]

(* ------------------------------------------------------------------ *)
(* LPs, roundings, exact solvers                                       *)
(* ------------------------------------------------------------------ *)

let test_card_lp_bounds_opt () =
  let inst = simple_instance () in
  match Core.Card_lp.lp_relaxation inst with
  | `Optimal (_, lp) ->
      let opt = Option.get (Core.Exact.brute_force inst) in
      Alcotest.(check bool) "lp <= opt" true (Q.leq lp opt.Sol.cost)
  | `Infeasible -> Alcotest.fail "lp should be feasible"

let test_algorithm1_feasible () =
  let inst = simple_instance () in
  match Core.Card_lp.lp_relaxation inst with
  | `Optimal (x, _) ->
      for seed = 0 to 9 do
        let rng = Svutil.Rng.create seed in
        let s = Core.Rounding.algorithm1 rng inst ~x in
        Alcotest.(check bool) (Printf.sprintf "seed %d feasible" seed) true
          (Sol.is_feasible inst s)
      done
  | `Infeasible -> Alcotest.fail "lp should be feasible"

let test_threshold_bound () =
  (* Theorem 6 accounting: threshold rounding costs at most lmax * LP. *)
  let inst = Inst.to_sets (simple_instance ()) in
  match Core.Set_lp.lp_relaxation inst with
  | `Optimal (x, lp) ->
      let s = Core.Rounding.threshold inst ~x in
      Alcotest.(check bool) "feasible" true (Sol.is_feasible inst s);
      let lmax = Q.of_int (Inst.lmax inst) in
      Alcotest.(check bool) "cost <= lmax * lp" true (Q.leq s.Sol.cost (Q.mul lmax lp))
  | `Infeasible -> Alcotest.fail "lp should be feasible"

(* The set-constraint IP with the paper's rows, as [Core.Set_lp] built
   it before it summed them: (15/19) and the w rows as now, and (16/20)
   as one row x_b - r_ij >= 0 per option j and attribute b of it. Kept
   verbatim as the reference the summed rows are checked against. *)
module Set_lp_reference = struct
  module P = Lp.Problem

  let options_of (m : Inst.pmod) =
    match m.Inst.ireq with
    | Inst.Sets a -> a
    | Inst.Card _ -> assert false (* removed by to_sets *)

  let unit_ub = Some Q.one

  let build (inst : Inst.t) =
    let inst = Inst.to_sets inst in
    let p = P.create () in
    let attr_var =
      Array.map
        (fun c ->
          let x = P.add_var ?ub:unit_ub ~integer:true p in
          P.set_cost p x c;
          x)
        inst.Inst.costs
    in
    (* [covers u v]: u - v >= 0, with [u] created before [v]. *)
    let covers u v =
      P.add_term p u Q.one;
      P.add_term p v Q.minus_one;
      P.close_row p P.Ge Q.zero
    in
    Array.iter
      (fun (pub : Inst.pub) ->
        let w = P.add_var ?ub:unit_ub p in
        P.set_cost p w pub.Inst.pcost;
        Array.iter
          (fun b ->
            P.add_term p attr_var.(b) Q.minus_one;
            P.add_term p w Q.one;
            P.close_row p P.Ge Q.zero)
          pub.Inst.pattrs)
      inst.Inst.pubs;
    Array.iter
      (fun (m : Inst.pmod) ->
        let options = options_of m in
        let r_vars = Array.map (fun _ -> P.add_var ?ub:unit_ub p) options in
        (* (15/19): some option selected. *)
        Array.iter (fun r -> P.add_term p r Q.one) r_vars;
        P.close_row p P.Ge Q.one;
        (* (16/20): selecting an option hides all its attributes. *)
        Array.iteri
          (fun j (ins, outs) ->
            let hides b = covers attr_var.(b) r_vars.(j) in
            Array.iter hides ins;
            Array.iter hides outs)
          options)
      inst.Inst.pmods;
    P.snapshot p
end

let test_set_ip_on_pools () =
  (* [Core.Exact]'s cost on every seed-42 pool member is the optimum of
     the program with the paper's rows, solved on its own. *)
  let module T = Perfbench_traffic.Traffic in
  List.iter
    (fun (name, wl) ->
      List.iteri
        (fun i w ->
          let inst = T.instance w in
          let exact =
            match Core.Exact.solve inst with
            | Some { Core.Exact.solution; proven_optimal = true } -> Some solution.Sol.cost
            | Some _ -> Alcotest.failf "%s pool member %d: no proven optimum" name i
            | None -> None
          in
          let reference =
            match Lp.Ilp.Hybrid.solve (Set_lp_reference.build inst) with
            | Lp.Ilp.Optimal { objective; _ } -> Some objective
            | Lp.Ilp.Infeasible -> None
            | _ -> Alcotest.failf "%s pool member %d: the paper rows' IP is unsolved" name i
          in
          if not (Option.equal Q.equal exact reference) then
            Alcotest.failf "%s pool member %d: exact %s, the paper rows' optimum %s" name i
              (Option.fold ~none:"none" ~some:Q.to_string exact)
              (Option.fold ~none:"none" ~some:Q.to_string reference))
        (T.pool_workflows wl))
    T.workloads

let test_infeasible_instance () =
  let inst =
    Inst.make
      ~attr_costs:[ ("a", Q.one) ]
      ~mods:[ { Inst.m_name = "m"; inputs = [ "a" ]; outputs = []; req = Req.Sets [] } ]
      ()
  in
  Alcotest.(check bool) "brute none" true (Core.Exact.brute_force inst = None);
  Alcotest.(check bool) "ilp none" true (Core.Exact.solve inst = None)

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)
(* ------------------------------------------------------------------ *)

module E = Core.Engine

let test_engine_methods () =
  (* The corpus measures [methods] in this order; Auto is dispatch, not
     a method. *)
  Alcotest.(check (list string))
    "concrete methods in reporting order"
    [ "greedy"; "round-card"; "round-set"; "exact"; "brute" ]
    (List.map E.meth_to_string E.methods);
  (* [run] dispatches each method to its own solver: the first phase
     is that solver's, and every method solves a small instance. *)
  let inst = simple_instance () in
  List.iter2
    (fun m first_phase ->
      let name = E.meth_to_string m in
      let r = E.run { (E.default_request inst) with E.meth = m } in
      Alcotest.(check string) (name ^ " first phase") first_phase
        (fst (List.hd r.E.timings));
      match r.E.solution with
      | Some s ->
          Alcotest.(check bool) (name ^ " feasible") true (Sol.is_feasible inst s)
      | None -> Alcotest.fail (name ^ " must solve the simple instance"))
    E.methods
    [ "greedy"; "lp"; "lp"; "flow"; "enumerate" ]

let wide_instance () =
  (* 26 attributes: one past the brute-force enumeration limit. *)
  let attrs = List.init 26 (fun i -> Printf.sprintf "b%02d" i) in
  Inst.make
    ~attr_costs:(List.map (fun a -> (a, Q.one)) attrs)
    ~mods:
      [ { Inst.m_name = "m"; inputs = attrs; outputs = []; req = Req.Card [ (1, 0) ] } ]
    ()

let test_brute_refusal () =
  let inst = wide_instance () in
  (match Core.Exact.brute_force_checked inst with
  | Error (Core.Exact.Too_many_attrs { attrs; limit }) ->
      Alcotest.(check int) "attrs" 26 attrs;
      Alcotest.(check int) "limit" Core.Exact.brute_force_limit limit
  | Ok _ -> Alcotest.fail "expected refusal");
  (match Core.Exact.brute_force inst with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unchecked brute_force must raise on refusal");
  (* The engine surfaces the refusal in stats instead of raising... *)
  let r = E.run { (E.default_request inst) with E.meth = E.Brute } in
  Alcotest.(check bool) "no solution" true (r.E.solution = None);
  Alcotest.(check bool) "refused stat" true
    (List.mem_assoc "refused" r.E.stats);
  (* ...and the portfolio never routes such an instance to brute. *)
  let auto = E.run { (E.default_request inst) with E.meth = E.Auto } in
  Alcotest.(check bool) "auto avoids brute" true (auto.E.method_used <> E.Brute);
  match auto.E.solution with
  | Some s -> Alcotest.(check bool) "auto feasible" true (Sol.is_feasible inst s)
  | None -> Alcotest.fail "auto must solve the wide instance"

let test_engine_deadline_gadget () =
  (* The general set-cover gadget from the bench suite, with the budget
     already spent: the engine must come back immediately with the
     greedy incumbent, flagged unproven. *)
  let sc = Combinat.Set_cover.random (Svutil.Rng.create 44) ~universe:6 ~n_sets:4 in
  let inst = Reductions.Sc_general.of_set_cover sc in
  let t0 = Svutil.Deadline.now_ms () in
  let r =
    E.run
      { (E.default_request inst) with E.meth = E.Exact; deadline_ms = Some 0. }
  in
  let elapsed_ms = Svutil.Deadline.now_ms () -. t0 in
  Alcotest.(check bool) "returns promptly" true (elapsed_ms < 5_000.);
  Alcotest.(check bool) "not proven optimal" false r.E.proven_optimal;
  Alcotest.(check bool) "deadline_hit" true
    (List.assoc_opt "deadline_hit" r.E.stats = Some "true");
  match r.E.solution with
  | Some s -> Alcotest.(check bool) "incumbent feasible" true (Sol.is_feasible inst s)
  | None -> Alcotest.fail "gadget has a greedy incumbent"

let test_engine_metrics_consistency () =
  (* One source of truth: the engine's stats and timings are derived
     from the same flushes and clock reads that feed the registry, so
     they must agree exactly — no tolerance. *)
  let sc = Combinat.Set_cover.random (Svutil.Rng.create 44) ~universe:6 ~n_sets:4 in
  let inst = Reductions.Sc_general.of_set_cover sc in
  let m = Svutil.Metrics.create () in
  let r = E.run { (E.default_request inst) with E.meth = E.Exact; E.metrics = m } in
  Alcotest.(check bool) "result carries the registry" true
    (Svutil.Metrics.enabled r.E.metrics);
  (match List.assoc_opt "nodes" r.E.stats with
  | Some nodes ->
      Alcotest.(check string) "registry nodes = stats nodes" nodes
        (string_of_int (Svutil.Metrics.counter_value m "ilp.nodes"))
  | None -> Alcotest.fail "exact stats must report nodes");
  (match Svutil.Metrics.span_stats m "solve" with
  | Some (1, ms) ->
      Alcotest.(check (float 0.)) "total timing is the solve span"
        (List.assoc "total" r.E.timings) ms
  | _ -> Alcotest.fail "one solve span expected");
  (match Svutil.Metrics.span_stats m "solve/search" with
  | Some (1, ms) ->
      Alcotest.(check (float 0.)) "search phase nested under solve"
        (List.assoc "search" r.E.timings) ms
  | _ -> Alcotest.fail "search span must nest under solve");
  (* The model build and the node LPs' spans nest under the search. *)
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " recorded") true
        (Svutil.Metrics.span_stats m path <> None))
    [
      "solve/search/lp/build";
      "solve/search/lp/seed";
      "solve/search/lp/presolve";
      "solve/search/lp/incumbent";
      "solve/search/lp/sform";
      "solve/search/lp/float";
      "solve/search/lp/certify";
    ]

let test_corpus_certify_counters () =
  (* Every float answer the LP methods find on the smoke corpus and on
     both seed-42 perfbench pools is certified as it stands: none falls
     back to the exact solver, fixed branch-and-bound columns
     included. *)
  let module T = Perfbench_traffic.Traffic in
  let corpus = Svbench.Corpus.generate ~smoke:true ~seed:42 () in
  Alcotest.(check int) "smoke corpus size" 60 (List.length corpus);
  let pools =
    List.concat_map (fun (_, wl) -> List.map T.instance (T.pool_workflows wl)) T.workloads
  in
  Alcotest.(check int) "pool members" 624 (List.length pools);
  let insts =
    List.map (fun (ir : Svbench.Corpus.inst_rec) -> ir.Svbench.Corpus.inst) corpus @ pools
  in
  List.iter
    (fun meth ->
      let m = Svutil.Metrics.create () in
      List.iter
        (fun inst -> ignore (E.run { (E.default_request inst) with E.meth; metrics = m }))
        insts;
      Alcotest.(check bool) (E.meth_to_string meth ^ " certified") true
        (Svutil.Metrics.counter_value m "certify.accepts" > 0);
      Alcotest.(check int) (E.meth_to_string meth ^ " certify.fallbacks") 0
        (Svutil.Metrics.counter_value m "certify.fallbacks"))
    [ E.Exact; E.Round_set; E.Round_card ]

let test_corpus_solver_work () =
  (* The solver's work on the full seed-42 corpus, pinned per method.
     Only IEEE double arithmetic decides the float pass's pivots, so
     every compiler must agree, and any change to the pivot sequence,
     the branching or the warm starts shows up here. *)
  let insts = Svbench.Corpus.generate ~seed:42 () in
  Alcotest.(check int) "corpus size" 360 (List.length insts);
  List.iter
    (fun (meth, expected) ->
      let m = Svutil.Metrics.create () in
      List.iter
        (fun (ir : Svbench.Corpus.inst_rec) ->
          ignore
            (E.run { (E.default_request ir.Svbench.Corpus.inst) with E.meth; metrics = m }))
        insts;
      List.iter
        (fun (c, n) ->
          Alcotest.(check int) (E.meth_to_string meth ^ " " ^ c) n
            (Svutil.Metrics.counter_value m c))
        expected)
    [
      ( E.Exact,
        [
          ("simplex.hybrid.float_pivots", 3414);
          ("ilp.nodes", 365);
          ("certify.accepts", 365);
          ("simplex.warm_starts", 20);
        ] );
      (E.Round_set, [ ("simplex.hybrid.float_pivots", 2976); ("certify.accepts", 358) ]);
      (E.Round_card, [ ("simplex.hybrid.float_pivots", 1877); ("certify.accepts", 131) ]);
    ]

(* The set-cover gadget of Theorem 5's bench rows, in cardinality form. *)
let sc_card_gadget () =
  Reductions.Sc_card.of_set_cover
    (Combinat.Set_cover.random (Svutil.Rng.create 11_003) ~universe:10 ~n_sets:8)

let test_round_card_deadline () =
  (* A trial count no budget covers: the deadline stops the trials (at
     1 ms the LP itself may be cut off first, and the greedy fallback
     answers; at 50 ms the LP finishes and the trials are cut), and
     nothing is allocated per trial up front. *)
  let inst = sc_card_gadget () in
  List.iter
    (fun ms ->
      let what = Printf.sprintf "%g ms" ms in
      let t0 = Svutil.Deadline.now_ms () in
      let r =
        E.run
          {
            (E.default_request inst) with
            E.meth = E.Round_card;
            trials = max_int;
            deadline_ms = Some ms;
          }
      in
      Alcotest.(check bool) (what ^ ": returns promptly") true
        (Svutil.Deadline.now_ms () -. t0 < 5_000.);
      Alcotest.(check (option string)) (what ^ ": deadline_hit") (Some "true")
        (List.assoc_opt "deadline_hit" r.E.stats);
      match r.E.solution with
      | Some s -> Alcotest.(check bool) (what ^ ": feasible") true (Sol.is_feasible inst s)
      | None -> Alcotest.fail (what ^ ": no answer"))
    [ 1.; 50. ];
  let r =
    E.run
      {
        (E.default_request inst) with
        E.meth = E.Round_card;
        trials = max_int;
        deadline_ms = Some 50.;
      }
  in
  Alcotest.(check bool) "the trials ran" true (List.mem_assoc "round" r.E.timings)

let test_round_card_seeded () =
  (* Each trial splits its stream from the seed's generator as it
     starts, which draws the streams that splitting every trial up
     front drew: a fixed seed keeps its answer. *)
  let inst = sc_card_gadget () in
  let r =
    E.run { (E.default_request inst) with E.meth = E.Round_card; seed = 7; trials = 3 }
  in
  Alcotest.(check (list (pair string string))) "stats" [ ("trials", "3") ] r.E.stats;
  let hidden (s : Sol.t) = (Q.to_string s.Sol.cost, s.Sol.hidden) in
  let got =
    match r.E.solution with Some s -> hidden s | None -> Alcotest.fail "no answer"
  in
  Alcotest.(check (pair string (list string)))
    "the answer before trials split lazily" ("5", [ "a0"; "a1"; "a4"; "a5"; "a6" ]) got;
  match Core.Card_lp.lp_relaxation inst with
  | `Infeasible -> Alcotest.fail "the gadget LP is feasible"
  | `Optimal (x, _) ->
      let base = Svutil.Rng.create 7 in
      let rngs = Array.init 3 (fun _ -> Svutil.Rng.split base) in
      let want, ran =
        Core.Rounding.best_of 3 (fun i -> Core.Rounding.algorithm1 rngs.(i) inst ~x)
      in
      Alcotest.(check int) "every trial ran" 3 ran;
      Alcotest.(check (pair string (list string))) "streams split up front" (hidden want) got

let test_par_batch_metrics_merge () =
  (* The batch driver gives each file its own registry and merges; the
     merged counters must not depend on whether the runs were parallel
     (spans carry wall-clock, so only counters are comparable). *)
  let insts =
    List.map
      (fun seed ->
        Reductions.Sc_general.of_set_cover
          (Combinat.Set_cover.random (Svutil.Rng.create seed) ~universe:6 ~n_sets:4))
      [ 44; 45; 46; 47 ]
  in
  let solve inst =
    let m = Svutil.Metrics.create () in
    ignore (E.run { (E.default_request inst) with E.meth = E.Exact; E.metrics = m });
    m
  in
  let fold rs = List.fold_left Svutil.Metrics.merge (Svutil.Metrics.create ()) rs in
  let seq = fold (List.map solve insts) in
  let par = fold (Svutil.Par.map ~jobs:4 solve insts) in
  Alcotest.(check (list (pair string int)))
    "par-merged counters = sequential sum" (Svutil.Metrics.counters seq)
    (Svutil.Metrics.counters par);
  Alcotest.(check bool) "counters are non-trivial" true
    (Svutil.Metrics.counter_value seq "ilp.nodes" > 0)

(* ------------------------------------------------------------------ *)
(* Properties on random workflow-derived instances                      *)
(* ------------------------------------------------------------------ *)

let prop ?(count = 25) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_instance =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_modules = int_range 1 4 in
    let rng = Svutil.Rng.create seed in
    let w =
      Wf.Gen.random_workflow rng
        { Wf.Gen.default with n_modules; max_inputs = 2; max_outputs = 1 }
    in
    let costs = Wf.Gen.random_costs rng w in
    let cost a = List.assoc a costs in
    return (w, Inst.of_workflow w ~gamma:2 ~cost ()))

(* A cost-preserving bijective renaming: every attribute and module
   name gains a suffix and the record lists are reversed.  Solver
   answers may pick different (equal-cost) sets, but the optimum value
   is invariant. *)
let rename_instance suffix (inst : Inst.t) =
  let ra a = a ^ suffix in
  let rename_req = function
    | Req.Card l -> Req.Card l
    | Req.Sets l ->
        Req.Sets (List.map (fun (i, o) -> (List.map ra i, List.map ra o)) l)
  in
  Inst.make
    ~attr_costs:(List.rev_map (fun (a, c) -> (ra a, c)) (Inst.attr_costs inst))
    ~mods:
      (List.rev_map
         (fun (m : Inst.module_req) ->
           {
             Inst.m_name = m.Inst.m_name ^ suffix;
             inputs = List.map ra m.Inst.inputs;
             outputs = List.map ra m.Inst.outputs;
             req = rename_req m.Inst.req;
           })
         (Inst.mods inst))
    ~publics:
      (List.map
         (fun (p : Inst.public_mod) ->
           {
             Inst.p_name = p.Inst.p_name ^ suffix;
             p_cost = p.Inst.p_cost;
             p_attrs = List.map ra p.Inst.p_attrs;
           })
         (Inst.publics inst))
    ()

let auto_cost inst =
  let r = E.run { (E.default_request inst) with E.meth = E.Auto } in
  Option.map (fun s -> s.Sol.cost) r.E.solution

let props =
  [
    prop "ilp matches brute force" gen_instance (fun (_, inst) ->
        match
          ( Core.Exact.solve ~mode:Lp.Simplex.Exact_mode inst,
            Core.Exact.brute_force inst )
        with
        | Some { solution; proven_optimal = true }, Some b ->
            Q.equal solution.Sol.cost b.Sol.cost
        | None, None -> true
        | _ -> false);
    prop "hybrid ilp proves the brute-force optimum" gen_instance
      (fun (_, inst) ->
        (* The default route: float basis hunting must still yield
           certified exact optima on the paper's gadget programs. *)
        match (Core.Exact.solve inst, Core.Exact.brute_force inst) with
        | Some { solution; proven_optimal = true }, Some b ->
            Q.equal solution.Sol.cost b.Sol.cost
        | None, None -> true
        | _ -> false);
    prop "greedy is feasible and within (gamma+1) of optimal" gen_instance
      (fun (w, inst) ->
        let s = Core.Greedy.solve inst in
        Sol.is_feasible inst s
        &&
        match Core.Exact.brute_force inst with
        | Some opt ->
            let bound =
              Q.mul (Q.of_int (Wf.Workflow.data_sharing_degree w + 1)) opt.Sol.cost
            in
            Q.leq s.Sol.cost bound
        | None -> false);
    prop "lp relaxation bounds the optimum" gen_instance (fun (_, inst) ->
        match (Core.Exact.lower_bound inst, Core.Exact.brute_force inst) with
        | Some lp, Some opt -> Q.leq lp opt.Sol.cost
        | None, None -> true
        | _ -> false);
    prop "algorithm1 rounding is feasible on derived instances" gen_instance
      (fun (_, inst) ->
        if not (List.for_all (fun (m : Inst.module_req) ->
                    match m.Inst.req with Req.Card _ -> true | _ -> false)
                  (Inst.mods inst))
        then true
        else
          match Core.Card_lp.lp_relaxation inst with
          | `Optimal (x, _) ->
              let rng = Svutil.Rng.create 42 in
              Sol.is_feasible inst (Core.Rounding.algorithm1 rng inst ~x)
          | `Infeasible -> false);
    prop "overhauled ilp matches the reference solver on gadget programs"
      gen_instance (fun (_, inst) ->
        (* Differential oracle for the solver overhaul: the pre-overhaul
           depth-first solver, kept verbatim as [solve_reference], must
           agree bit-for-bit on the Figure-3 / set-constraint integer
           programs the experiments actually solve. *)
        let ip =
          if List.for_all (fun (m : Inst.module_req) ->
                 match m.Inst.req with Req.Card _ -> true | _ -> false)
               (Inst.mods inst)
          then (Core.Card_lp.build inst).Core.Card_lp.problem
          else (Core.Set_lp.build inst).Core.Set_lp.problem
        in
        match (Lp.Ilp.Exact.solve ip, Lp.Ilp.Exact.solve_reference ip) with
        | Lp.Ilp.Optimal a, Lp.Ilp.Optimal b -> Q.equal a.objective b.objective
        | Lp.Ilp.Infeasible, Lp.Ilp.Infeasible -> true
        | _ -> false);
    prop "presolve preserves gadget lp relaxation optima" gen_instance
      (fun (_, inst) ->
        let ip =
          if List.for_all (fun (m : Inst.module_req) ->
                 match m.Inst.req with Req.Card _ -> true | _ -> false)
               (Inst.mods inst)
          then (Core.Card_lp.build inst).Core.Card_lp.problem
          else (Core.Set_lp.build inst).Core.Set_lp.problem
        in
        let relaxed = Lp.Problem.relax ip in
        match
          ( Lp.Simplex.Exact.solve relaxed,
            Lp.Presolve.solve_lp (module Lp.Simplex.Exact) relaxed )
        with
        | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b -> Q.equal a.objective b.objective
        | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible -> true
        | _ -> false);
    prop "summed set rows keep the paper rows' ip optimum" gen_instance (fun (_, inst) ->
        match
          ( Lp.Ilp.Exact.solve (Core.Set_lp.build inst).Core.Set_lp.problem,
            Lp.Ilp.Exact.solve (Set_lp_reference.build inst) )
        with
        | Lp.Ilp.Optimal a, Lp.Ilp.Optimal b -> Q.equal a.objective b.objective
        | Lp.Ilp.Infeasible, Lp.Ilp.Infeasible -> true
        | _ -> false);
    prop "summed set rows bound between the paper rows' lp and the ip optimum" gen_instance
      (fun (_, inst) ->
        let hull = (Core.Set_lp.build inst).Core.Set_lp.problem in
        let lp ip = Lp.Simplex.Exact.solve (Lp.Problem.relax ip) in
        match (lp hull, lp (Set_lp_reference.build inst), Lp.Ilp.Exact.solve hull) with
        | Lp.Simplex.Optimal h, Lp.Simplex.Optimal r, Lp.Ilp.Optimal opt ->
            Q.leq r.objective h.objective && Q.leq h.objective opt.objective
        | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible, Lp.Ilp.Infeasible -> true
        | _ -> false);
    prop "threshold rounding obeys the lmax bound" gen_instance (fun (_, inst) ->
        match Core.Set_lp.lp_relaxation ~mode:Lp.Simplex.Exact_mode inst with
        | `Optimal (x, lp) ->
            let s = Core.Rounding.threshold inst ~x in
            Sol.is_feasible inst s
            && Q.leq s.Sol.cost (Q.mul (Q.of_int (max 1 (Inst.lmax (Inst.to_sets inst)))) lp)
        | `Infeasible -> false);
    prop "engine auto matches the directly-invoked method" gen_instance
      (fun (_, inst) ->
        let auto = E.run { (E.default_request inst) with E.meth = E.Auto } in
        let direct =
          E.run { (E.default_request inst) with E.meth = auto.E.method_used }
        in
        direct.E.method_used = auto.E.method_used
        && direct.E.proven_optimal = auto.E.proven_optimal
        &&
        match (auto.E.solution, direct.E.solution) with
        | Some a, Some b -> Q.equal a.Sol.cost b.Sol.cost
        | None, None -> true
        | _ -> false);
    prop "engine lp method matches direct threshold rounding" gen_instance
      (fun (_, inst) ->
        let r = E.run { (E.default_request inst) with E.meth = E.Round_set } in
        match (Core.Set_lp.lp_relaxation inst, r.E.solution) with
        | `Optimal (x, bound), Some s ->
            let direct = Core.Rounding.threshold inst ~x in
            Q.equal s.Sol.cost direct.Sol.cost
            && r.E.lower_bound = Some bound
        | `Infeasible, None -> true
        | _ -> false);
    prop "engine exact matches the direct solver" gen_instance
      (fun (_, inst) ->
        let r = E.run { (E.default_request inst) with E.meth = E.Exact } in
        match (Core.Exact.solve inst, r.E.solution) with
        | Some { Core.Exact.solution; proven_optimal }, Some s ->
            Q.equal s.Sol.cost solution.Sol.cost
            && r.E.proven_optimal = proven_optimal
        | None, None -> true
        | _ -> false);
    prop "deadline-expired exact is unproven and no worse than greedy"
      gen_instance (fun (_, inst) ->
        let r =
          E.run
            {
              (E.default_request inst) with
              E.meth = E.Exact;
              deadline_ms = Some 0.;
            }
        in
        (not r.E.proven_optimal)
        &&
        let greedy =
          match Core.Greedy.solve inst with
          | g when Sol.is_feasible inst g -> Some g
          | _ | (exception Invalid_argument _) -> None
        in
        match (r.E.solution, greedy) with
        | Some s, Some g ->
            Sol.is_feasible inst s && Q.leq s.Sol.cost g.Sol.cost
        | Some s, None -> Sol.is_feasible inst s
        | None, Some _ -> false
        | None, None -> true);
    (* Metamorphic: names carry no information, so a bijective renaming
       of attributes and modules leaves the optimal cost unchanged. *)
    prop "renaming preserves auto cost (cardinality)" gen_instance
      (fun (_, inst) ->
        match (auto_cost inst, auto_cost (rename_instance "_r" inst)) with
        | Some a, Some b -> Q.equal a b
        | None, None -> true
        | _ -> false);
    prop "renaming preserves auto cost (sets)" gen_instance (fun (_, inst) ->
        let inst = Inst.to_sets inst in
        match (auto_cost inst, auto_cost (rename_instance "_r" inst)) with
        | Some a, Some b -> Q.equal a b
        | None, None -> true
        | _ -> false);
    prop "engine metrics registry matches stats" gen_instance (fun (_, inst) ->
        let m = Svutil.Metrics.create () in
        let r =
          E.run { (E.default_request inst) with E.meth = E.Exact; E.metrics = m }
        in
        List.assoc_opt "nodes" r.E.stats
        = Some (string_of_int (Svutil.Metrics.counter_value m "ilp.nodes")));
  ]

let () =
  Alcotest.run "core"
    [
      ( "requirements",
        [
          Alcotest.test_case "normalize card" `Quick test_normalize_card;
          Alcotest.test_case "normalize sets" `Quick test_normalize_sets;
          Alcotest.test_case "is_satisfied" `Quick test_is_satisfied;
          Alcotest.test_case "card to sets" `Quick test_card_to_sets;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "one-one (example 6)" `Quick test_derive_one_one;
          Alcotest.test_case "majority (example 6)" `Quick test_derive_majority;
          Alcotest.test_case "matches standalone safety" `Quick test_derive_matches_standalone;
        ]
        @ derive_props );
      ( "instances",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "feasibility" `Quick test_instance_feasibility;
          Alcotest.test_case "privatization closure" `Quick test_solution_of_hidden_privatizes;
          Alcotest.test_case "to_sets by rank = by name" `Quick test_to_sets_by_rank;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~count:500 ~name:"to_sets = rank lists"
               ~print:(Format.asprintf "%a" Inst.pp) gen_set_lists to_sets_matches_reference);
          Alcotest.test_case "to_sets on seed-42 pools" `Quick test_to_sets_on_pools;
        ] );
      ( "objective (section 6)",
        [
          Alcotest.test_case "accounting" `Quick test_objective_accounting;
          Alcotest.test_case "privatization penalty" `Quick test_objective_with_privatization;
        ] );
      ( "example 5",
        [ Alcotest.test_case "data-sharing gap" `Quick test_example5_gap ] );
      ( "view",
        [
          Alcotest.test_case "pipeline" `Quick test_secure_view_pipeline;
          Alcotest.test_case "privatized names" `Quick test_secure_view_privatizes_names;
          Alcotest.test_case "infeasible" `Quick test_secure_view_infeasible;
          Alcotest.test_case "all solvers" `Quick test_secure_view_solvers_agree_on_safety;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "card lp bounds opt" `Quick test_card_lp_bounds_opt;
          Alcotest.test_case "algorithm1 feasible" `Quick test_algorithm1_feasible;
          Alcotest.test_case "threshold bound" `Quick test_threshold_bound;
          Alcotest.test_case "infeasible instance" `Quick test_infeasible_instance;
          Alcotest.test_case "paper set rows agree on seed-42 pools" `Quick test_set_ip_on_pools;
        ] );
      ( "engine",
        [
          Alcotest.test_case "methods" `Quick test_engine_methods;
          Alcotest.test_case "brute refusal" `Quick test_brute_refusal;
          Alcotest.test_case "deadline on gadget" `Quick test_engine_deadline_gadget;
          Alcotest.test_case "metrics consistency" `Quick test_engine_metrics_consistency;
          Alcotest.test_case "par batch metrics merge" `Quick test_par_batch_metrics_merge;
          Alcotest.test_case "corpus certify counters" `Quick test_corpus_certify_counters;
          Alcotest.test_case "corpus solver work" `Quick test_corpus_solver_work;
          Alcotest.test_case "round-card deadline" `Quick test_round_card_deadline;
          Alcotest.test_case "round-card seeded answer" `Quick test_round_card_seeded;
        ] );
      ("properties", props);
    ]
