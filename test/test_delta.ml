(* Core.Delta / Core.Canon: the incremental re-solve engine.

   The load-bearing property is differential: for random instances and
   random edit scripts (mixing all edit kinds, including edits that
   make the instance infeasible and later repair it), the incremental
   optimum equals a from-scratch solve of the edited instance. *)

module Q = Rat
module Req = Core.Requirement
module Inst = Core.Instance
module Sol = Core.Solution
module E = Core.Engine
module D = Core.Delta
module Canon = Core.Canon

let q = Alcotest.testable Q.pp Q.equal

let mk ~attr_costs ~mods ?(publics = []) () =
  Inst.make
    ~attr_costs:(List.map (fun (a, c) -> (a, Q.of_int c)) attr_costs)
    ~mods ~publics ()

let m name inputs outputs req = { Inst.m_name = name; inputs; outputs; req }

(* Two independent chains: editing one must leave the other's side of
   the solve untouched (the scoped tier). *)
let two_components () =
  mk
    ~attr_costs:[ ("a1", 1); ("a2", 2); ("b1", 3); ("b2", 1) ]
    ~mods:
      [
        m "ma" [ "a1" ] [ "a2" ] (Req.Card [ (1, 0); (0, 1) ]);
        m "mb" [ "b1" ] [ "b2" ] (Req.Card [ (1, 0); (0, 1) ]);
      ]
    ()

let run_inst inst = E.run (E.default_request inst)

let cost_opt (r : E.result) =
  Option.map (fun (s : Sol.t) -> s.Sol.cost) r.E.solution

(* ------------------------------------------------------------------ *)
(* apply / parse                                                       *)
(* ------------------------------------------------------------------ *)

let test_apply_basic () =
  let inst = two_components () in
  match
    D.apply inst
      [
        D.Set_cost { attr = "b1"; cost = Q.of_int 7 };
        D.Add_attr { attr = "c1"; cost = Q.one };
        D.Add_module
          {
            m_name = "mc";
            inputs = [ "c1" ];
            outputs = [];
            req = Req.Card [ (1, 0) ];
          };
        D.Drop_module { name = "ma" };
      ]
  with
  | Error e -> Alcotest.fail e
  | Ok (edited, touched) ->
      Alcotest.(check (list string))
        "touched" [ "a1"; "a2"; "b1"; "c1" ] touched;
      Alcotest.check q "new cost" (Q.of_int 7) (Inst.attr_cost edited "b1");
      Alcotest.(check int) "module count" 2 (List.length (Inst.mods edited));
      Alcotest.(check (list string))
        "attrs survive drops" [ "a1"; "a2"; "b1"; "b2"; "c1" ]
        (List.sort compare (Inst.attrs edited))

let test_apply_errors () =
  let inst = two_components () in
  let bad s = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("expected failure: " ^ s)
  in
  bad "dup attr" (D.apply inst [ D.Add_attr { attr = "a1"; cost = Q.one } ]);
  bad "unknown cost" (D.apply inst [ D.Set_cost { attr = "zz"; cost = Q.one } ]);
  bad "unknown module" (D.apply inst [ D.Drop_module { name = "zz" } ]);
  bad "unknown wire"
    (D.apply inst
       [ D.Rewire { m_name = "ma"; inputs = [ "zz" ]; outputs = []; req = None } ])

let test_parse_script () =
  let text =
    "# a comment\n\
     attr c1 3/2\n\
     cost a1 5\n\
     req ma card 1:0 0:1\n\
     rewire mb inputs a1,c1 outputs - sets a1:c1\n\
     add mc inputs c1 outputs - card 1:0\n\
     drop ma\n"
  in
  match D.parse_script text with
  | Error e -> Alcotest.fail e
  | Ok script ->
      Alcotest.(check int) "six edits" 6 (List.length script);
      (match script with
      | D.Add_attr { attr = "c1"; cost } :: _ ->
          Alcotest.check q "rational cost" (Q.of_ints 3 2) cost
      | _ -> Alcotest.fail "first edit should be attr c1");
      (match List.nth script 3 with
      | D.Rewire { inputs = [ "a1"; "c1" ]; outputs = []; req = Some (Req.Sets _); _ } ->
          ()
      | _ -> Alcotest.fail "rewire shape")

let test_parse_errors () =
  let bad s =
    match D.parse_script s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("parse should fail: " ^ s)
  in
  bad "frob x 1";
  bad "attr x";
  bad "cost x notanumber";
  bad "req m card 1:z";
  bad "add m inputs a outputs b"

(* ------------------------------------------------------------------ *)
(* closures / components                                               *)
(* ------------------------------------------------------------------ *)

let test_component () =
  Alcotest.(check (list string))
    "transitive closure" [ "a"; "b"; "c" ]
    (D.component
       ~groups:[ [ "a"; "b" ]; [ "b"; "c" ]; [ "d"; "e" ] ]
       ~seeds:[ "a" ]);
  Alcotest.(check (list string))
    "seed kept even when isolated" [ "z" ]
    (D.component ~groups:[ [ "a"; "b" ] ] ~seeds:[ "z" ])

let test_wiring_closures () =
  let up, down = D.wiring_closures [ ([ "a" ], [ "b" ]); ([ "b" ], [ "c" ]) ] in
  Alcotest.(check (list string)) "upstream of c" [ "a"; "b" ] (up "c");
  Alcotest.(check (list string)) "downstream of a" [ "b"; "c" ] (down "a");
  Alcotest.(check (list string)) "source has no upstream" [] (up "a")

let test_dirty_closure_uses_both_wirings () =
  (* Rewiring mb from the b-chain onto a2 couples the two components in
     the edited instance; the dirty set must include both. *)
  let base = two_components () in
  match
    D.apply base
      [ D.Rewire { m_name = "mb"; inputs = [ "a2" ]; outputs = [ "b2" ]; req = None } ]
  with
  | Error e -> Alcotest.fail e
  | Ok (edited, touched) ->
      let dirty = D.dirty_closure ~base ~edited ~touched in
      Alcotest.(check (list string))
        "old and new wiring both dirty" [ "a1"; "a2"; "b1"; "b2" ] dirty

(* ------------------------------------------------------------------ *)
(* Canon                                                               *)
(* ------------------------------------------------------------------ *)

let test_canon_detects_change () =
  let inst = two_components () in
  match D.apply inst [ D.Set_cost { attr = "b1"; cost = Q.of_int 9 } ] with
  | Error e -> Alcotest.fail e
  | Ok (edited, _) ->
      Alcotest.(check bool) "digest changes with cost" false
        (String.equal (Canon.digest inst) (Canon.digest edited));
      Alcotest.(check bool) "form changes with cost" false
        (Canon.equal inst edited)

let test_canon_identity () =
  let inst = two_components () in
  Alcotest.(check bool) "equal to itself" true (Canon.equal inst inst);
  Alcotest.(check string) "digest is stable" (Canon.digest inst)
    (Canon.digest inst)

(* ------------------------------------------------------------------ *)
(* resolve: tiers on hand-built instances                              *)
(* ------------------------------------------------------------------ *)

let resolve_ok parent script =
  match D.resolve ~parent script with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let test_resolve_noop () =
  let inst = two_components () in
  let parent = run_inst inst in
  let o = resolve_ok parent [] in
  Alcotest.(check bool) "noop tier" true (o.D.reuse = D.Noop);
  Alcotest.(check (option q)) "same optimum" (cost_opt parent)
    (cost_opt o.D.result);
  (* Setting a cost to its current value is also canonically a no-op. *)
  let o2 = resolve_ok parent [ D.Set_cost { attr = "a1"; cost = Q.one } ] in
  Alcotest.(check bool) "rewrite-to-same is noop" true (o2.D.reuse = D.Noop)

let test_resolve_scoped () =
  let inst = two_components () in
  let parent = run_inst inst in
  let metrics = Svutil.Metrics.create () in
  match D.resolve ~metrics ~parent [ D.Set_cost { attr = "b1"; cost = Q.of_int 9 } ] with
  | Error e -> Alcotest.fail e
  | Ok o ->
      (match o.D.reuse with
      | D.Scoped { dirty = 2; total = 4 } -> ()
      | _ -> Alcotest.fail "expected scoped 2/4");
      Alcotest.(check (list string)) "dirty is the b component" [ "b1"; "b2" ]
        o.D.dirty;
      let scratch = run_inst o.D.edited in
      Alcotest.(check (option q)) "scoped optimum = from-scratch"
        (cost_opt scratch) (cost_opt o.D.result);
      Alcotest.(check bool) "still proven" true o.D.result.E.proven_optimal;
      Alcotest.(check int) "dirty_attrs counter" 2
        (Svutil.Metrics.counter_value metrics "delta.dirty_attrs")

let test_resolve_infeasible_then_repair () =
  let inst = two_components () in
  let parent = run_inst inst in
  (* No hidden subset of ma's one input / one output has 9 inputs. *)
  let break = [ D.Set_requirement { m_name = "ma"; req = Req.Card [ (9, 0) ] } ] in
  let o = resolve_ok parent break in
  Alcotest.(check (option q)) "broken edit is infeasible" None
    (cost_opt o.D.result);
  (* The infeasible result still carries solved state: chain a repair. *)
  let repair =
    [ D.Set_requirement { m_name = "ma"; req = Req.Card [ (1, 0); (0, 1) ] } ]
  in
  let o2 = resolve_ok o.D.result repair in
  Alcotest.(check (option q)) "repair restores the original optimum"
    (cost_opt parent) (cost_opt o2.D.result)

let test_resolve_chain () =
  let inst = two_components () in
  let parent = run_inst inst in
  let o1 = resolve_ok parent [ D.Set_cost { attr = "a1"; cost = Q.of_int 5 } ] in
  let o2 =
    resolve_ok o1.D.result
      [
        D.Add_attr { attr = "c1"; cost = Q.one };
        D.Add_module
          {
            m_name = "mc";
            inputs = [ "c1" ];
            outputs = [];
            req = Req.Card [ (1, 0) ];
          };
      ]
  in
  let scratch = run_inst o2.D.edited in
  Alcotest.(check (option q)) "chained optimum = from-scratch"
    (cost_opt scratch) (cost_opt o2.D.result)

let test_resolve_no_state () =
  let inst = two_components () in
  let r = run_inst inst in
  match D.resolve ~parent:{ r with E.state = None } [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resolve must refuse a state-less parent"

(* The re-solves' work on the seed-42 [solve_uncached] perfbench pool:
   each member is solved with [Engine.run], then re-solved under one
   edit, its first attribute by name costing one more. The summed
   nodes and float pivots of the re-solves and the count of each tier
   are pinned, so a change to what a tier solves, or to how the search
   it runs starts, shows here. *)
let test_delta_solver_work () =
  let module T = Perfbench_traffic.Traffic in
  let metrics = Svutil.Metrics.create () in
  let noop = ref 0 and scoped = ref 0 and full = ref 0 in
  List.iter
    (fun w ->
      let inst = T.instance w in
      let parent = run_inst inst in
      let attr = List.hd (List.sort String.compare (Inst.attrs inst)) in
      let cost = Q.add (Inst.attr_cost inst attr) Q.one in
      match D.resolve ~metrics ~parent [ D.Set_cost { attr; cost } ] with
      | Error e -> Alcotest.fail e
      | Ok { D.reuse = D.Noop; _ } -> incr noop
      | Ok { D.reuse = D.Scoped _; _ } -> incr scoped
      | Ok { D.reuse = D.Full; _ } -> incr full)
    (T.pool_workflows (List.assoc "solve_uncached" T.workloads));
  List.iter
    (fun (c, n) -> Alcotest.(check int) c n (Svutil.Metrics.counter_value metrics c))
    [ ("ilp.nodes", 308); ("simplex.hybrid.float_pivots", 4791) ];
  List.iter
    (fun (tier, expected, got) -> Alcotest.(check int) (tier ^ " tier") expected !got)
    [ ("noop", 0, noop); ("scoped", 39, scoped); ("full", 201, full) ]

(* ------------------------------------------------------------------ *)
(* Properties on random instances and edit scripts                     *)
(* ------------------------------------------------------------------ *)

let prop ?(count = 30) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen f)

let show_req = function
  | Req.Card l ->
      "card "
      ^ String.concat " " (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) l)
  | Req.Sets l ->
      "sets "
      ^ String.concat " "
          (List.map
             (fun (i, o) -> String.concat "," i ^ ":" ^ String.concat "," o)
             l)

let show_edit = function
  | D.Add_attr { attr; cost } ->
      Printf.sprintf "attr %s %s" attr (Q.to_string cost)
  | D.Set_cost { attr; cost } ->
      Printf.sprintf "cost %s %s" attr (Q.to_string cost)
  | D.Set_requirement { m_name; req } ->
      Printf.sprintf "req %s %s" m_name (show_req req)
  | D.Rewire { m_name; inputs; outputs; req } ->
      Printf.sprintf "rewire %s inputs %s outputs %s%s" m_name
        (String.concat "," inputs) (String.concat "," outputs)
        (match req with None -> "" | Some r -> " " ^ show_req r)
  | D.Add_module { m_name; inputs; outputs; req } ->
      Printf.sprintf "add %s inputs %s outputs %s %s" m_name
        (String.concat "," inputs) (String.concat "," outputs) (show_req req)
  | D.Drop_module { name } -> Printf.sprintf "drop %s" name

let show_inst_script (inst, script) =
  Format.asprintf "%a@.script:@.  %s" Inst.pp inst
    (String.concat "\n  " (List.map show_edit script))

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
    return (Inst.of_workflow w ~gamma:2 ~cost ()))

(* A random edit against [inst]: all kinds, biased towards the cheap
   local ones, occasionally unsatisfiable (Card [(9,0)]) so the
   differential property also covers infeasible-and-back scripts. *)
let gen_edit (inst : Inst.t) idx =
  let open QCheck2.Gen in
  let attrs = Inst.attrs inst in
  let mod_names = List.map (fun (m : Inst.module_req) -> m.Inst.m_name) (Inst.mods inst) in
  let attr = oneofl attrs in
  let fresh = Printf.sprintf "znew%d" idx in
  let gen_req =
    frequency
      [
        (4, (let* a = int_range 0 2 and* b = int_range 0 1 in
             return (Req.Card [ (a, b) ])));
        (1, return (Req.Card [ (9, 0) ]));
      ]
  in
  frequency
    ([
       (3, (let* a = attr and* c = int_range 0 5 in
            return (D.Set_cost { attr = a; cost = Q.of_int c })));
       (1, (let* c = int_range 0 3 in
            return (D.Add_attr { attr = fresh; cost = Q.of_int c })));
     ]
    @
    match mod_names with
    | [] -> []
    | _ ->
        let mname = oneofl mod_names in
        [
          (2, (let* name = mname and* req = gen_req in
               return (D.Set_requirement { m_name = name; req })));
          (1, (let* name = mname and* ins = list_size (int_range 0 2) attr
               and* outs = list_size (int_range 0 1) attr in
               return
                 (D.Rewire
                    {
                      m_name = name;
                      inputs = List.sort_uniq compare ins;
                      outputs = List.sort_uniq compare outs;
                      req = None;
                    })));
          (1, (let* name = mname in return (D.Drop_module { name })));
          (1, (let* ins = list_size (int_range 1 2) attr and* req = gen_req in
               return
                 (D.Add_module
                    {
                      m_name = fresh ^ "m";
                      inputs = List.sort_uniq compare ins;
                      outputs = [];
                      req;
                    })));
        ])

let gen_inst_script =
  QCheck2.Gen.(
    let* inst = gen_instance in
    let* n = int_range 1 3 in
    let rec edits i acc =
      if i >= n then return (List.rev acc)
      else
        let* e = gen_edit inst i in
        edits (i + 1) (e :: acc)
    in
    let* script = edits 0 [] in
    return (inst, script))

let props =
  [
    prop ~print:show_inst_script "incremental optimum = from-scratch" gen_inst_script
      (fun (inst, script) ->
        match D.apply inst script with
        | Error _ -> true (* ill-formed script: not this property's job *)
        | Ok (edited, _) -> (
            let parent = run_inst inst in
            match D.resolve ~parent script with
            | Error e -> QCheck2.Test.fail_report e
            | Ok o -> (
                let scratch = run_inst edited in
                match (cost_opt o.D.result, cost_opt scratch) with
                | None, None -> true
                | Some a, Some b -> Q.equal a b
                | Some _, None -> QCheck2.Test.fail_report "incremental feasible, scratch not"
                | None, Some _ -> QCheck2.Test.fail_report "scratch feasible, incremental not")));
    prop ~print:show_inst_script "chained resolves track from-scratch" gen_inst_script
      (fun (inst, script) ->
        (* Apply the same script one edit at a time, chaining each
           outcome's result as the next parent. *)
        match D.apply inst script with
        | Error _ -> true
        | Ok (edited, _) -> (
            let parent = run_inst inst in
            let final =
              List.fold_left
                (fun parent e ->
                  match D.resolve ~parent [ e ] with
                  | Ok o -> o.D.result
                  | Error e -> Alcotest.fail e)
                parent script
            in
            match (cost_opt final, cost_opt (run_inst edited)) with
            | None, None -> true
            | Some a, Some b -> Q.equal a b
            | _ -> false));
    prop "canon digest is rename-invariant" gen_instance (fun inst ->
        let ra a = a ^ "_r" in
        let renamed =
          Inst.make
            ~attr_costs:
              (List.rev_map (fun (a, c) -> (ra a, c)) (Inst.attr_costs inst))
            ~mods:
              (List.rev_map
                 (fun (mr : Inst.module_req) ->
                   {
                     Inst.m_name = mr.Inst.m_name ^ "_r";
                     inputs = List.map ra mr.Inst.inputs;
                     outputs = List.map ra mr.Inst.outputs;
                     req =
                       (match mr.Inst.req with
                       | Req.Card l -> Req.Card l
                       | Req.Sets l ->
                           Req.Sets
                             (List.map
                                (fun (i, o) -> (List.map ra i, List.map ra o))
                                l));
                   })
                 (Inst.mods inst))
            ~publics:
              (List.map
                 (fun (p : Inst.public_mod) ->
                   {
                     Inst.p_name = p.Inst.p_name ^ "_r";
                     p_cost = p.Inst.p_cost;
                     p_attrs = List.map ra p.Inst.p_attrs;
                   })
                 (Inst.publics inst))
            ()
        in
        String.equal (Canon.digest inst) (Canon.digest renamed));
  ]

let () =
  Alcotest.run "delta"
    [
      ( "edits",
        [
          Alcotest.test_case "apply basics" `Quick test_apply_basic;
          Alcotest.test_case "apply errors" `Quick test_apply_errors;
          Alcotest.test_case "parse script" `Quick test_parse_script;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "closures",
        [
          Alcotest.test_case "component fixpoint" `Quick test_component;
          Alcotest.test_case "wiring closures" `Quick test_wiring_closures;
          Alcotest.test_case "dirty uses both wirings" `Quick
            test_dirty_closure_uses_both_wirings;
        ] );
      ( "canon",
        [
          Alcotest.test_case "identity" `Quick test_canon_identity;
          Alcotest.test_case "detects cost change" `Quick
            test_canon_detects_change;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "noop tier" `Quick test_resolve_noop;
          Alcotest.test_case "scoped tier" `Quick test_resolve_scoped;
          Alcotest.test_case "infeasible then repair" `Quick
            test_resolve_infeasible_then_repair;
          Alcotest.test_case "chained edits" `Quick test_resolve_chain;
          Alcotest.test_case "state-less parent refused" `Quick
            test_resolve_no_state;
          Alcotest.test_case "delta solver work" `Quick test_delta_solver_work;
        ] );
      ("properties", props);
    ]
