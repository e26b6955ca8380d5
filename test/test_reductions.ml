module Q = Rat
module SC = Combinat.Set_cover
module VC = Combinat.Vertex_cover
module LC = Combinat.Label_cover
module Sol = Core.Solution

let q = Alcotest.testable Q.pp Q.equal

(* Exact optima via branch-and-bound ILP; the gadgets have too many
   attributes for subset brute force (which we still cross-check once on
   a tiny instance below). *)
let opt_solution inst =
  match Core.Exact.solve inst with
  | Some { Core.Exact.solution; proven_optimal } ->
      if not proven_optimal then Alcotest.fail "node limit hit on gadget";
      solution
  | None -> Alcotest.fail "reduction instance should be feasible"

let opt_cost inst = (opt_solution inst).Sol.cost

let test_ilp_matches_brute_on_tiny_gadget () =
  let sc = SC.make ~universe:2 ~sets:[ [ 0 ]; [ 1 ]; [ 0; 1 ] ] in
  List.iter
    (fun inst ->
      match Core.Exact.brute_force inst with
      | Some b -> Alcotest.check q "ilp = brute" b.Sol.cost (opt_cost inst)
      | None -> Alcotest.fail "feasible")
    [ Reductions.Sc_card.of_set_cover sc; Reductions.Sc_general.of_set_cover sc ]

(* B.4.2: set cover -> cardinality ----------------------------------- *)

let test_sc_card_example () =
  let sc = SC.make ~universe:5 ~sets:[ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 0; 4 ] ] in
  let inst = Reductions.Sc_card.of_set_cover sc in
  let sv = opt_solution inst in
  Alcotest.check q "secure-view opt = set cover opt"
    (Q.of_int (List.length (SC.exact sc)))
    sv.Sol.cost;
  let cover = Reductions.Sc_card.cover_of_solution sc sv in
  Alcotest.(check bool) "back-mapped solution covers" true (SC.is_cover sc cover)

let test_sc_card_random () =
  let rng = Svutil.Rng.create 3 in
  for _ = 1 to 8 do
    let sc = SC.random rng ~universe:5 ~n_sets:4 in
    let inst = Reductions.Sc_card.of_set_cover sc in
    Alcotest.check q "cost equality"
      (Q.of_int (List.length (SC.exact sc)))
      (opt_cost inst)
  done

(* B.5.2 / Figure 4: label cover -> set constraints ------------------- *)

let test_lc_set_example () =
  let lc =
    LC.make ~left:2 ~right:2 ~labels:2
      ~edges:
        [ ((0, 0), [ (0, 0) ]); ((0, 1), [ (0, 1); (1, 0) ]); ((1, 1), [ (1, 1) ]) ]
  in
  let inst = Reductions.Lc_set.of_label_cover lc in
  let sv = opt_solution inst in
  Alcotest.check q "lemma 5 equality" (Q.of_int (LC.cost (LC.exact lc))) sv.Sol.cost;
  let a = Reductions.Lc_set.assignment_of_solution lc sv in
  Alcotest.(check bool) "back-mapped assignment feasible" true (LC.is_feasible lc a)

let test_lc_set_random () =
  let rng = Svutil.Rng.create 17 in
  for _ = 1 to 6 do
    let lc = LC.random rng ~left:2 ~right:1 ~labels:2 ~edge_prob:0.7 in
    let inst = Reductions.Lc_set.of_label_cover lc in
    Alcotest.check q "cost equality" (Q.of_int (LC.cost (LC.exact lc))) (opt_cost inst)
  done

(* B.6.2 / Figure 5: cubic vertex cover, no data sharing --------------- *)

let test_vc_example () =
  let g = VC.make ~n:4 ~edges:[ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] in
  let inst = Reductions.Vc_nosharing.of_vertex_cover g in
  let k = List.length (VC.exact g) in
  let sv = opt_solution inst in
  Alcotest.check q "lemma 6: m' + K"
    (Reductions.Vc_nosharing.expected_cost g ~cover_size:k)
    sv.Sol.cost;
  let cover = Reductions.Vc_nosharing.cover_of_solution g sv in
  Alcotest.(check bool) "back-mapped cover" true (VC.is_cover g cover)

let test_vc_path () =
  (* Not cubic, but the reduction is well-defined on any graph. *)
  let g = VC.make ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let inst = Reductions.Vc_nosharing.of_vertex_cover g in
  Alcotest.check q "2 edges + cover 1" (Q.of_int 3) (opt_cost inst)

let test_vc_no_sharing_structure () =
  (* The instance must have gamma = 1: every attribute is input to at
     most one module. *)
  let g = VC.make ~n:4 ~edges:[ (0, 1); (2, 3) ] in
  let inst = Reductions.Vc_nosharing.of_vertex_cover g in
  let consumers a =
    List.length
      (List.filter (fun (m : Core.Instance.module_req) -> List.mem a m.Core.Instance.inputs)
         (Core.Instance.mods inst))
  in
  List.iter
    (fun a -> Alcotest.(check bool) (a ^ " unshared") true (consumers a <= 1))
    (Core.Instance.attrs inst)

(* C.2: set cover -> general workflow, no sharing ---------------------- *)

let test_sc_general_example () =
  let sc = SC.make ~universe:4 ~sets:[ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ] ] in
  let inst = Reductions.Sc_general.of_set_cover sc in
  let sv = opt_solution inst in
  Alcotest.check q "privatization cost = cover size"
    (Q.of_int (List.length (SC.exact sc)))
    sv.Sol.cost;
  let cover = Reductions.Sc_general.cover_of_solution sc sv in
  Alcotest.(check bool) "privatized sets cover" true (SC.is_cover sc cover)

let test_sc_general_random () =
  let rng = Svutil.Rng.create 23 in
  for _ = 1 to 8 do
    let sc = SC.random rng ~universe:5 ~n_sets:4 in
    let inst = Reductions.Sc_general.of_set_cover sc in
    Alcotest.check q "cost equality"
      (Q.of_int (List.length (SC.exact sc)))
      (opt_cost inst)
  done

(* C.4 / Figure 6: label cover -> general workflow, cardinality -------- *)

let test_lc_general_example () =
  let lc =
    LC.make ~left:2 ~right:2 ~labels:2
      ~edges:
        [ ((0, 0), [ (0, 0) ]); ((0, 1), [ (0, 1); (1, 0) ]); ((1, 1), [ (1, 1) ]) ]
  in
  let inst = Reductions.Lc_general.of_label_cover lc in
  let sv = opt_solution inst in
  Alcotest.check q "lemma 8 equality" (Q.of_int (LC.cost (LC.exact lc))) sv.Sol.cost;
  let a = Reductions.Lc_general.assignment_of_solution lc sv in
  Alcotest.(check bool) "back-mapped assignment feasible" true (LC.is_feasible lc a)

let test_lc_general_random () =
  let rng = Svutil.Rng.create 29 in
  for _ = 1 to 5 do
    let lc = LC.random rng ~left:2 ~right:1 ~labels:2 ~edge_prob:0.7 in
    let inst = Reductions.Lc_general.of_label_cover lc in
    Alcotest.check q "cost equality" (Q.of_int (LC.cost (LC.exact lc))) (opt_cost inst)
  done

(* Theorem 2: UNSAT -> Safe-View ---------------------------------------- *)

let test_unsat_gadget_known () =
  (* x & !x is unsatisfiable -> view is safe. *)
  let contradiction = Combinat.Cnf.make ~n_vars:1 ~clauses:[ [ (0, true) ]; [ (0, false) ] ] in
  Alcotest.(check bool) "unsat formula -> safe" true (Reductions.Unsat_gadget.safe contradiction);
  (* A single positive clause is satisfiable -> view is unsafe. *)
  let sat = Combinat.Cnf.make ~n_vars:2 ~clauses:[ [ (0, true); (1, true) ] ] in
  Alcotest.(check bool) "sat formula -> unsafe" false (Reductions.Unsat_gadget.safe sat)

let test_unsat_gadget_random () =
  (* Theorem 2's equivalence: safety of the view iff unsatisfiability. *)
  let rng = Svutil.Rng.create 31 in
  for _ = 1 to 20 do
    let g = Combinat.Cnf.random rng ~n_vars:3 ~n_clauses:4 ~clause_size:2 in
    let unsat = Combinat.Cnf.satisfiable g = None in
    Alcotest.(check bool) "equivalence" unsat (Reductions.Unsat_gadget.safe g)
  done

(* Theorem 3: the oracle-adversary pair ---------------------------------- *)

let test_oracle_gadget_l4 () =
  let names = Reductions.Oracle_gadget.input_names 4 in
  let special = Svutil.Listx.take 2 names in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (Reductions.Oracle_gadget.verify_properties ~l:4 ~special)

let test_oracle_gadget_special_position_irrelevant () =
  (* The properties hold for any choice of the special set. *)
  let names = Reductions.Oracle_gadget.input_names 4 in
  let rng = Svutil.Rng.create 41 in
  for _ = 1 to 3 do
    let special = Svutil.Rng.sample rng 2 names in
    List.iter
      (fun (name, ok) -> Alcotest.(check bool) name true ok)
      (Reductions.Oracle_gadget.verify_properties ~l:4 ~special)
  done

let test_oracle_gadget_validation () =
  Alcotest.check_raises "l not divisible by 4"
    (Invalid_argument "Oracle_gadget: l must be divisible by 4") (fun () ->
      ignore (Reductions.Oracle_gadget.m1 ~l:6));
  Alcotest.check_raises "bad special"
    (Invalid_argument "Oracle_gadget.m2: special must be l/2 input names") (fun () ->
      ignore (Reductions.Oracle_gadget.m2 ~l:4 ~special:[ "x0" ]))

let () =
  Alcotest.run "reductions"
    [
      ( "cross-checks",
        [ Alcotest.test_case "ilp vs brute on tiny gadget" `Quick test_ilp_matches_brute_on_tiny_gadget ] );
      ( "set cover -> cardinality (B.4.2)",
        [
          Alcotest.test_case "example" `Quick test_sc_card_example;
          Alcotest.test_case "random" `Quick test_sc_card_random;
        ] );
      ( "label cover -> sets (figure 4)",
        [
          Alcotest.test_case "example" `Quick test_lc_set_example;
          Alcotest.test_case "random" `Quick test_lc_set_random;
        ] );
      ( "vertex cover -> no sharing (figure 5)",
        [
          Alcotest.test_case "K4" `Quick test_vc_example;
          Alcotest.test_case "path" `Quick test_vc_path;
          Alcotest.test_case "gamma = 1" `Quick test_vc_no_sharing_structure;
        ] );
      ( "set cover -> general (C.2)",
        [
          Alcotest.test_case "example" `Quick test_sc_general_example;
          Alcotest.test_case "random" `Quick test_sc_general_random;
        ] );
      ( "label cover -> general (figure 6)",
        [
          Alcotest.test_case "example" `Quick test_lc_general_example;
          Alcotest.test_case "random" `Quick test_lc_general_random;
        ] );
      ( "unsat -> safe-view (theorem 2)",
        [
          Alcotest.test_case "known formulas" `Quick test_unsat_gadget_known;
          Alcotest.test_case "random equivalence" `Quick test_unsat_gadget_random;
        ] );
      ( "oracle adversary (theorem 3)",
        [
          Alcotest.test_case "properties at l=4" `Quick test_oracle_gadget_l4;
          Alcotest.test_case "any special set" `Quick test_oracle_gadget_special_position_irrelevant;
          Alcotest.test_case "validation" `Quick test_oracle_gadget_validation;
        ] );
    ]
