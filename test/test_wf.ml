module A = Rel.Attr
module S = Rel.Schema
module R = Rel.Relation
module W = Wf.Workflow
module M = Wf.Wmodule
module L = Wf.Library

let rel = Alcotest.testable R.pp R.equal

(* Wmodule ------------------------------------------------------------- *)

let test_of_fun_and_apply () =
  let m = L.and_gate ~name:"and" ~inputs:[ "x"; "y" ] ~output:"z" in
  Alcotest.(check int) "table size" 4 (R.size m.M.table);
  Alcotest.(check (option bool)) "1&1" (Some true)
    (Option.map (fun o -> o.(0) = 1) (M.apply m [| 1; 1 |]));
  Alcotest.(check (option bool)) "1&0" (Some false)
    (Option.map (fun o -> o.(0) = 1) (M.apply m [| 1; 0 |]))

let test_module_fd_enforced () =
  let schema = S.of_list (A.booleans [ "x"; "z" ]) in
  let bad = R.create schema [ [| 0; 0 |]; [| 0; 1 |] ] in
  Alcotest.check_raises "fd" (Invalid_argument "Wmodule bad: functional dependency I -> O violated")
    (fun () ->
      ignore (M.of_table ~name:"bad" ~inputs:[ A.boolean "x" ] ~outputs:[ A.boolean "z" ] bad))

let test_module_fd_far_apart () =
  (* The two rows for input (0, 1) are far apart in the given order;
     sorting makes them adjacent, where the check looks. *)
  let schema = S.of_list (A.booleans [ "x"; "y"; "z" ]) in
  let rows =
    [ [| 0; 1; 0 |]; [| 1; 1; 1 |]; [| 0; 0; 0 |]; [| 1; 0; 1 |]; [| 0; 1; 1 |] ]
  in
  Alcotest.check_raises "fd" (Invalid_argument "Wmodule far: functional dependency I -> O violated")
    (fun () ->
      ignore
        (M.of_table ~name:"far" ~inputs:(A.booleans [ "x"; "y" ]) ~outputs:[ A.boolean "z" ]
           (R.create schema rows)));
  (* Without the conflicting row the same table is a function. *)
  let ok = R.create schema (List.filteri (fun i _ -> i < 4) rows) in
  Alcotest.(check int) "function" 4
    (R.size (M.of_table ~name:"far" ~inputs:(A.booleans [ "x"; "y" ]) ~outputs:[ A.boolean "z" ] ok).M.table)

let test_module_io_disjoint () =
  let schema = S.of_list (A.booleans [ "x" ]) in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Wmodule bad: attribute x is both input and output") (fun () ->
      ignore
        (M.of_table ~name:"bad" ~inputs:[ A.boolean "x" ] ~outputs:[ A.boolean "x" ]
           (R.create schema [])))

let test_partial_module () =
  let m =
    M.of_partial_fun ~name:"p" ~inputs:[ A.boolean "x" ] ~outputs:[ A.boolean "y" ]
      ~defined_on:[ [| 0 |] ]
      (fun x -> x)
  in
  Alcotest.(check bool) "defined" true (M.apply m [| 0 |] <> None);
  Alcotest.(check bool) "undefined" true (M.apply m [| 1 |] = None);
  Alcotest.(check int) "defined inputs" 1 (List.length (M.defined_inputs m))

let test_predicates () =
  Alcotest.(check bool) "identity one-one" true
    (M.is_one_one (L.identity ~name:"id" ~inputs:[ "x"; "y" ] ~outputs:[ "u"; "v" ]));
  Alcotest.(check bool) "negate one-one" true
    (M.is_one_one (L.negate_all ~name:"neg" ~inputs:[ "x" ] ~outputs:[ "u" ]));
  Alcotest.(check bool) "and not one-one" false
    (M.is_one_one (L.and_gate ~name:"and" ~inputs:[ "x"; "y" ] ~output:"z"));
  Alcotest.(check bool) "constant" true
    (M.is_constant (L.constant ~name:"c" ~inputs:[ "x" ] ~outputs:[ "u" ] [| 1 |]));
  Alcotest.(check bool) "and not constant" false
    (M.is_constant (L.and_gate ~name:"and" ~inputs:[ "x"; "y" ] ~output:"z"))

let test_majority () =
  let m = L.majority ~name:"maj" ~inputs:[ "x1"; "x2"; "x3"; "x4" ] ~output:"y" in
  let out x = (Option.get (M.apply m x)).(0) in
  Alcotest.(check int) "2 of 4 ones" 1 (out [| 1; 0; 1; 0 |]);
  Alcotest.(check int) "1 of 4 ones" 0 (out [| 1; 0; 0; 0 |]);
  Alcotest.(check int) "all ones" 1 (out [| 1; 1; 1; 1 |])

(* Workflow ------------------------------------------------------------- *)

let test_fig1_structure () =
  let w = L.fig1_workflow () in
  Alcotest.(check (list string)) "modules" [ "m1"; "m2"; "m3" ] (W.module_names w);
  Alcotest.(check (list string)) "initial" [ "a1"; "a2" ] (W.initial_names w);
  Alcotest.(check (list string)) "attrs" [ "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7" ]
    (W.attr_names w);
  Alcotest.(check (list string)) "final" [ "a6"; "a7" ] (W.final_names w);
  Alcotest.(check (list string)) "intermediate" [ "a3"; "a4"; "a5" ] (W.intermediate_names w);
  Alcotest.(check int) "gamma = 2 (a4 feeds m2 and m3)" 2 (W.data_sharing_degree w);
  Alcotest.(check (option string)) "producer a6" (Some "m2") (W.producer w "a6");
  Alcotest.(check (option string)) "producer a1" None (W.producer w "a1");
  Alcotest.(check (list string)) "consumers a4" [ "m2"; "m3" ] (W.consumers w "a4")

let test_fig1_relation () =
  (* Figure 1(b) of the paper. *)
  let w = L.fig1_workflow () in
  let expected =
    R.create (S.of_list (A.booleans [ "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7" ]))
      [
        [| 0; 0; 0; 1; 1; 1; 0 |];
        [| 0; 1; 1; 1; 0; 0; 1 |];
        [| 1; 0; 1; 1; 0; 0; 1 |];
        [| 1; 1; 1; 0; 1; 1; 1 |];
      ]
  in
  Alcotest.check rel "matches paper table" expected (W.relation w)

let test_topological_reorder () =
  (* Supply modules in reverse order; create must sort them. *)
  let w = W.create_exn [ L.fig1_m3; L.fig1_m2; L.fig1_m1 ] in
  Alcotest.(check string) "first module" "m1" (List.hd (W.module_names w))

let test_cycle_detected () =
  let m1 = L.identity ~name:"f" ~inputs:[ "x" ] ~outputs:[ "y" ] in
  let m2 = L.identity ~name:"g" ~inputs:[ "y" ] ~outputs:[ "x" ] in
  match W.create [ m1; m2 ] with
  | Error e -> Alcotest.(check string) "message" "workflow contains a cycle" e
  | Ok _ -> Alcotest.fail "cycle not detected"

let test_duplicate_producer () =
  let m1 = L.identity ~name:"f" ~inputs:[ "x" ] ~outputs:[ "y" ] in
  let m2 = L.identity ~name:"g" ~inputs:[ "x" ] ~outputs:[ "y" ] in
  match W.create [ m1; m2 ] with
  | Error e ->
      Alcotest.(check string) "message" "some attribute is produced by two modules" e
  | Ok _ -> Alcotest.fail "duplicate producer not detected"

let test_domain_conflict () =
  let m1 =
    M.of_fun ~name:"f" ~inputs:[ A.make "x" ~dom:3 ] ~outputs:[ A.boolean "y" ] (fun _ -> [| 0 |])
  in
  let m2 = L.identity ~name:"g" ~inputs:[ "x" ] ~outputs:[ "z" ] in
  match W.create [ m1; m2 ] with
  | Error e -> Alcotest.(check string) "message" "attribute x used with domains 3 and 2" e
  | Ok _ -> Alcotest.fail "domain conflict not detected"

let test_run () =
  let w = L.fig1_workflow () in
  match W.run w [| 1; 1 |] with
  | Some t -> Alcotest.(check bool) "tuple" true (t = [| 1; 1; 1; 0; 1; 1; 1 |])
  | None -> Alcotest.fail "run failed"

let test_run_partial_failure () =
  let m =
    M.of_partial_fun ~name:"p" ~inputs:[ A.boolean "x" ] ~outputs:[ A.boolean "y" ]
      ~defined_on:[ [| 0 |] ]
      (fun x -> x)
  in
  let w = W.create_exn [ m ] in
  Alcotest.(check bool) "undefined run" true (W.run w [| 1 |] = None);
  Alcotest.(check int) "relation drops failures" 1 (R.size (W.relation w))

let test_with_modules () =
  let w = L.fig1_workflow () in
  let alt =
    M.of_fun ~name:"m2"
      ~inputs:(A.booleans [ "a3"; "a4" ])
      ~outputs:[ A.boolean "a6" ]
      (fun _ -> [| 0 |])
  in
  let w' = W.with_modules w [ alt ] in
  let r' = W.relation w' in
  Alcotest.(check bool) "a6 all zero" true
    (List.for_all (fun t -> t.(5) = 0) (R.rows r'));
  (* incompatible substitute *)
  let bad = L.identity ~name:"m2" ~inputs:[ "a3" ] ~outputs:[ "a6" ] in
  Alcotest.check_raises "incompatible"
    (Invalid_argument "Workflow.with_modules: incompatible substitute") (fun () ->
      ignore (W.with_modules w [ bad ]))

let test_chain_relation_is_join () =
  (* R = R1 join R2 for a chain (Section 4's R = R1 |><| ... |><| Rn,
     when every initial input combination is executed). *)
  let m1 = L.identity ~name:"f" ~inputs:[ "x" ] ~outputs:[ "y" ] in
  let m2 = L.negate_all ~name:"g" ~inputs:[ "y" ] ~outputs:[ "z" ] in
  let w = W.create_exn [ m1; m2 ] in
  Alcotest.check rel "join" (R.join m1.M.table m2.M.table) (W.relation w)

(* Parser ----------------------------------------------------------------- *)

let parse_ok text =
  match Wf.Parse.parse_string text with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parse_basic () =
  let spec =
    parse_ok
      {|
# a two-module chain
gamma 4
gamma g 2
attr x cost 2
attr y dom 2 cost 1/2
attr z
module f private inputs x outputs y
fn f negate
module g public cost 7 inputs y outputs z
row g 0 -> 0
row g 1 -> 0
|}
  in
  Alcotest.(check int) "gamma" 4 spec.Wf.Parse.gamma;
  Alcotest.(check (list (pair string int))) "override" [ ("g", 2) ] spec.Wf.Parse.gamma_overrides;
  Alcotest.(check int) "modules" 2 (List.length (W.modules spec.Wf.Parse.workflow));
  Alcotest.(check bool) "cost y" true
    (Rat.equal (Rat.of_ints 1 2) (List.assoc "y" spec.Wf.Parse.costs));
  Alcotest.(check (list string)) "publics" [ "g" ] (List.map fst spec.Wf.Parse.publics);
  let g = Option.get (W.find_module spec.Wf.Parse.workflow "g") in
  Alcotest.(check bool) "g is constant" true (M.is_constant g)

let test_parse_errors () =
  let err text =
    match Wf.Parse.parse_string text with Error e -> e | Ok _ -> Alcotest.fail "expected error"
  in
  Alcotest.(check bool) "undeclared attr" true
    (String.length (err "module m private inputs x outputs y") > 0);
  Alcotest.(check string) "no modules" "no modules declared" (err "attr x\n");
  Alcotest.(check bool) "line number reported" true
    (String.length (err "attr x\nbogus directive") >= 6
    && String.sub (err "attr x\nbogus directive") 0 6 = "line 2");
  Alcotest.(check bool) "missing functionality" true
    (err "attr x\nattr y\nmodule m private inputs x outputs y" <> "");
  Alcotest.(check bool) "row arity" true
    (err "attr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 1 -> 0" <> "")

let test_parse_roundtrip_fig1 () =
  (* Explicit row tables reproduce the library's Figure 1 workflow. *)
  let spec =
    parse_ok
      {|
attr a1
attr a2
attr a3
attr a4
attr a5
attr a6
attr a7
module m1 private inputs a1 a2 outputs a3 a4 a5
row m1 0 0 -> 0 1 1
row m1 0 1 -> 1 1 0
row m1 1 0 -> 1 1 0
row m1 1 1 -> 1 0 1
module m2 private inputs a3 a4 outputs a6
row m2 0 0 -> 1
row m2 0 1 -> 1
row m2 1 0 -> 1
row m2 1 1 -> 0
module m3 private inputs a4 a5 outputs a7
row m3 0 0 -> 1
row m3 0 1 -> 1
row m3 1 0 -> 1
row m3 1 1 -> 0
|}
  in
  Alcotest.check rel "same relation"
    (W.relation (L.fig1_workflow ()))
    (W.relation spec.Wf.Parse.workflow)

(* Generators ------------------------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)

let gen_workflow =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_modules = int_range 1 5 in
    let* max_sharing = int_range 1 3 in
    let rng = Svutil.Rng.create seed in
    return
      (Wf.Gen.random_workflow rng
         { Wf.Gen.default with n_modules; max_sharing }))

let props =
  [
    prop "generated workflows respect gamma" gen_workflow (fun w ->
        W.data_sharing_degree w <= 3);
    prop "generated workflows satisfy module FDs" gen_workflow (fun w ->
        let r = W.relation w in
        List.for_all
          (fun m ->
            R.satisfies_fd r ~lhs:(M.input_names m) ~rhs:(M.output_names m))
          (W.modules w));
    prop "relation projects onto module tables" gen_workflow (fun w ->
        (* pi_{Ii u Oi}(R) is a subset of the module relation Ri. *)
        let r = W.relation w in
        List.for_all
          (fun (m : M.t) ->
            let proj = R.reorder (R.project r (M.attr_names m)) (M.attr_names m) in
            List.for_all (R.mem m.M.table) (R.rows proj))
          (W.modules w));
    prop "every attribute has at most one producer" gen_workflow (fun w ->
        List.for_all
          (fun a ->
            match W.producer w a with
            | None -> List.mem a (W.initial_names w)
            | Some _ -> true)
          (W.attr_names w));
  ]

let () =
  Alcotest.run "wf"
    [
      ( "wmodule",
        [
          Alcotest.test_case "of_fun and apply" `Quick test_of_fun_and_apply;
          Alcotest.test_case "fd enforced" `Quick test_module_fd_enforced;
          Alcotest.test_case "fd violation far apart" `Quick test_module_fd_far_apart;
          Alcotest.test_case "io disjoint" `Quick test_module_io_disjoint;
          Alcotest.test_case "partial module" `Quick test_partial_module;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "majority" `Quick test_majority;
        ] );
      ( "workflow",
        [
          Alcotest.test_case "figure 1 structure" `Quick test_fig1_structure;
          Alcotest.test_case "figure 1 relation" `Quick test_fig1_relation;
          Alcotest.test_case "topological reorder" `Quick test_topological_reorder;
          Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
          Alcotest.test_case "duplicate producer" `Quick test_duplicate_producer;
          Alcotest.test_case "domain conflict" `Quick test_domain_conflict;
          Alcotest.test_case "run" `Quick test_run;
          Alcotest.test_case "partial failure" `Quick test_run_partial_failure;
          Alcotest.test_case "with_modules" `Quick test_with_modules;
          Alcotest.test_case "chain relation is join" `Quick test_chain_relation_is_join;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "figure 1 roundtrip" `Quick test_parse_roundtrip_fig1;
        ] );
      ("generators", props);
    ]
