module A = Rel.Attr
module S = Rel.Schema
module R = Rel.Relation
module T = Rel.Tuple

let rel = Alcotest.testable R.pp R.equal

let s_abc = S.of_list (A.booleans [ "a"; "b"; "c" ])
let mk rows = R.create s_abc (List.map Array.of_list rows)

(* Attr / Schema -------------------------------------------------------- *)

let test_attr_validation () =
  Alcotest.check_raises "dom 0" (Invalid_argument "Attr.make: domain must have at least one value")
    (fun () -> ignore (A.make "x" ~dom:0));
  Alcotest.check_raises "empty name" (Invalid_argument "Attr.make: empty name") (fun () ->
      ignore (A.make "" ~dom:2))

let test_schema_duplicate () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.of_list: duplicate attribute names")
    (fun () -> ignore (S.of_list (A.booleans [ "a"; "a" ])))

let test_schema_lookup () =
  Alcotest.(check int) "index" 1 (S.index_of s_abc "b");
  Alcotest.(check bool) "mem" true (S.mem s_abc "c");
  Alcotest.(check bool) "not mem" false (S.mem s_abc "z")

let test_schema_restrict_order () =
  (* restrict follows schema order regardless of the requested order *)
  let sub = S.restrict s_abc [ "c"; "a" ] in
  Alcotest.(check (list string)) "order" [ "a"; "c" ] (S.names sub)

let test_all_tuples () =
  let ts = S.all_tuples s_abc in
  Alcotest.(check int) "count" 8 (List.length ts);
  Alcotest.(check bool) "first" true (T.equal [| 0; 0; 0 |] (List.hd ts));
  let mixed = S.of_list [ A.make "x" ~dom:3; A.boolean "y" ] in
  Alcotest.(check int) "3x2" 6 (List.length (S.all_tuples mixed))

let test_domain_size_guard () =
  let big = S.of_list (List.init 50 (fun i -> A.boolean (Printf.sprintf "b%d" i))) in
  Alcotest.check_raises "guard" (Failure "Schema.domain_size: too large to enumerate")
    (fun () -> ignore (S.domain_size big))

(* Tuple ---------------------------------------------------------------- *)

let test_tuple_project () =
  let t = [| 1; 0; 1 |] in
  Alcotest.(check bool) "ac" true (T.equal [| 1; 1 |] (T.project s_abc [ "a"; "c" ] t));
  Alcotest.(check bool) "reorder irrelevant" true
    (T.equal [| 1; 1 |] (T.project s_abc [ "c"; "a" ] t));
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (T.project s_abc [ "z" ] t))

let test_tuple_validate () =
  Alcotest.(check bool) "ok" true (T.validate s_abc [| 0; 1; 1 |]);
  Alcotest.(check bool) "bad arity" false (T.validate s_abc [| 0; 1 |]);
  Alcotest.(check bool) "bad value" false (T.validate s_abc [| 0; 1; 2 |])

(* Relation ------------------------------------------------------------- *)

let test_relation_set_semantics () =
  let r = mk [ [ 0; 0; 1 ]; [ 0; 0; 1 ]; [ 1; 1; 0 ] ] in
  Alcotest.(check int) "dedup" 2 (R.size r)

let test_relation_create_invalid () =
  Alcotest.check_raises "bad row" (Invalid_argument "Relation.create: malformed row (0,1,2)")
    (fun () -> ignore (mk [ [ 0; 1; 2 ] ]))

let test_projection () =
  let r = mk [ [ 0; 0; 1 ]; [ 0; 1; 1 ]; [ 1; 1; 0 ] ] in
  let p = R.project r [ "a"; "c" ] in
  Alcotest.(check int) "collapses" 2 (R.size p);
  Alcotest.(check bool) "member" true (R.mem p [| 0; 1 |])

let test_projection_idempotent () =
  let r = mk [ [ 0; 0; 1 ]; [ 1; 0; 1 ] ] in
  let once = R.project r [ "a"; "b" ] in
  let twice = R.project once [ "a"; "b" ] in
  Alcotest.check rel "idempotent" once twice

let test_join_basic () =
  (* R(a,b) join S(b,c) *)
  let r = R.create (S.of_list (A.booleans [ "a"; "b" ])) [ [| 0; 0 |]; [| 1; 1 |] ] in
  let s = R.create (S.of_list (A.booleans [ "b"; "c" ])) [ [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ] in
  let j = R.join r s in
  Alcotest.(check (list string)) "schema" [ "a"; "b"; "c" ] (S.names (R.schema j));
  Alcotest.(check int) "rows" 3 (R.size j);
  Alcotest.(check bool) "contains 1,1,0" true (R.mem j [| 1; 1; 0 |]);
  Alcotest.(check bool) "no 0,0,0" false (R.mem j [| 0; 0; 0 |])

let test_join_no_common_is_product () =
  let r = R.create (S.of_list (A.booleans [ "a" ])) [ [| 0 |]; [| 1 |] ] in
  let s = R.create (S.of_list (A.booleans [ "b" ])) [ [| 0 |]; [| 1 |] ] in
  Alcotest.(check int) "product" 4 (R.size (R.join r s))

let test_join_domain_conflict () =
  let r = R.create (S.of_list [ A.make "a" ~dom:3 ]) [ [| 2 |] ] in
  let s = R.create (S.of_list [ A.boolean "a" ]) [ [| 1 |] ] in
  Alcotest.check_raises "conflict"
    (Invalid_argument "Relation.join: attribute a has conflicting domains") (fun () ->
      ignore (R.join r s))

let test_fd () =
  let r = mk [ [ 0; 0; 0 ]; [ 0; 1; 0 ]; [ 1; 0; 1 ] ] in
  Alcotest.(check bool) "a -> c holds" true (R.satisfies_fd r ~lhs:[ "a" ] ~rhs:[ "c" ]);
  Alcotest.(check bool) "a -> b fails" false (R.satisfies_fd r ~lhs:[ "a" ] ~rhs:[ "b" ]);
  Alcotest.(check bool) "ab -> c holds" true (R.satisfies_fd r ~lhs:[ "a"; "b" ] ~rhs:[ "c" ])

let test_full () =
  Alcotest.(check int) "full size" 8 (R.size (R.full s_abc))

let test_select () =
  let r = R.full s_abc in
  let sel = R.select r (fun sch t -> T.value sch t "a" = 1) in
  Alcotest.(check int) "half" 4 (R.size sel)

(* Properties ------------------------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let gen_rel =
  QCheck2.Gen.(
    let* rows = list_size (int_range 0 12) (array_size (return 3) (int_range 0 1)) in
    return (R.create s_abc rows))

let props =
  [
    prop "projection shrinks" gen_rel (fun r ->
        R.size (R.project r [ "a"; "b" ]) <= R.size r);
    prop "projection to all attrs is identity" gen_rel (fun r ->
        R.equal r (R.project r [ "a"; "b"; "c" ]));
    prop "join with self is identity" gen_rel (fun r -> R.equal r (R.join r r));
    prop "join size bounded by product" QCheck2.Gen.(pair gen_rel gen_rel) (fun (r, s) ->
        let s' = R.project s [ "b"; "c" ] in
        R.size (R.join r s') <= R.size r * R.size s');
    prop "projection commutes with union of attrs" gen_rel (fun r ->
        R.equal (R.project r [ "a" ]) (R.project (R.project r [ "a"; "b" ]) [ "a" ]));
    prop "Tuple.compare has the sign of Stdlib.compare"
      QCheck2.Gen.(
        let tuple = array_size (int_range 0 4) (oneof [ int_range (-3) 3; int ]) in
        pair tuple tuple)
      (fun (a, b) -> Int.compare (T.compare a b) 0 = Int.compare (Stdlib.compare a b) 0);
  ]

let () =
  Alcotest.run "rel"
    [
      ( "schema",
        [
          Alcotest.test_case "attr validation" `Quick test_attr_validation;
          Alcotest.test_case "duplicate names" `Quick test_schema_duplicate;
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "restrict order" `Quick test_schema_restrict_order;
          Alcotest.test_case "all tuples" `Quick test_all_tuples;
          Alcotest.test_case "domain size guard" `Quick test_domain_size_guard;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "project" `Quick test_tuple_project;
          Alcotest.test_case "validate" `Quick test_tuple_validate;
        ] );
      ( "relation",
        [
          Alcotest.test_case "set semantics" `Quick test_relation_set_semantics;
          Alcotest.test_case "create invalid" `Quick test_relation_create_invalid;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "projection idempotent" `Quick test_projection_idempotent;
          Alcotest.test_case "join basic" `Quick test_join_basic;
          Alcotest.test_case "join product" `Quick test_join_no_common_is_product;
          Alcotest.test_case "join domain conflict" `Quick test_join_domain_conflict;
          Alcotest.test_case "functional dependency" `Quick test_fd;
          Alcotest.test_case "full relation" `Quick test_full;
          Alcotest.test_case "select" `Quick test_select;
        ] );
      ("properties", props);
    ]
