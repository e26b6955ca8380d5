(* Tests for the scenario corpus (bench/corpus.ml) and the [Auto] route
   decision ([Engine.choose]):

   - determinism: one seed fixes the generated instance set and the
     measured rows (modulo wall-clock fields) byte for byte;
   - the route decision: each branch of [choose], both sides of each
     threshold, on small hand-built instances;
   - differential routing property: [Auto] costs the same as invoking
     the routed method directly. *)

module E = Core.Engine
module C = Svbench.Corpus
module J = Svutil.Json
module Lx = Svutil.Listx

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* Generation ---------------------------------------------------------- *)

let test_generate_deterministic () =
  let dump seed recs = J.to_string (C.instances_to_json ~seed recs) in
  let a = C.generate ~smoke:true ~seed:42 () in
  let b = C.generate ~smoke:true ~seed:42 () in
  Alcotest.(check string) "same seed, byte-identical dump" (dump 42 a)
    (dump 42 b);
  let c = C.generate ~smoke:true ~seed:43 () in
  Alcotest.(check bool) "different seed, different corpus" true
    (dump 43 c <> dump 42 a)

let test_corpus_shape () =
  let full = C.generate ~seed:42 () in
  Alcotest.(check bool) "at least 200 instances" true
    (List.length full >= 200);
  let fams = Lx.dedup (List.map (fun (r : C.inst_rec) -> r.C.family) full) in
  Alcotest.(check int) "five topology families" 5 (List.length fams);
  Alcotest.(check int) "ids are unique" (List.length full)
    (List.length (Lx.dedup (List.map (fun (r : C.inst_rec) -> r.C.id) full)))

let test_rows_deterministic () =
  let recs = Lx.take 10 (C.generate ~smoke:true ~seed:7 ()) in
  let dump rows = J.to_string (C.rows_to_json ~times:false ~seed:7 rows) in
  Alcotest.(check string) "rows byte-identical modulo times"
    (dump (C.run recs))
    (dump (C.run recs))

(* Routing -------------------------------------------------------------- *)

let smoke_pool =
  lazy (Array.of_list (C.generate ~smoke:true ~seed:42 ()))

let differential_prop =
  prop ~count:40 "auto cost equals the directly-invoked"
    QCheck2.Gen.(int_range 0 100_000)
    (fun n ->
      let pool = Lazy.force smoke_pool in
      let ir = pool.(n mod Array.length pool) in
      let req = { (E.default_request ir.C.inst) with E.meth = E.Auto } in
      let m = E.choose req in
      let auto = E.run req in
      let direct = E.run { req with E.meth = m } in
      auto.E.method_used = m
      &&
      match (auto.E.solution, direct.E.solution) with
      | Some a, Some b ->
          Rat.equal a.Core.Solution.cost b.Core.Solution.cost
      | None, None -> true
      | _ -> false)

(* [mk_inst attrs req]: [attrs] attributes, one private module reading
   the first and writing the rest under [req]. *)
let mk_inst attrs req =
  let names = List.init attrs (Printf.sprintf "a%d") in
  Core.Instance.make
    ~attr_costs:(List.map (fun a -> (a, Rat.one)) names)
    ~mods:
      [
        {
          Core.Instance.m_name = "m";
          inputs = [ List.hd names ];
          outputs = List.tl names;
          req;
        };
      ]
    ()

let card attrs = mk_inst attrs (Core.Requirement.Card [ (1, 0) ])

(* Set constraints with [l] options, each hiding one output. *)
let sets attrs l =
  mk_inst attrs
    (Core.Requirement.Sets
       (List.init l (fun i -> ([], [ Printf.sprintf "a%d" (i + 1) ]))))

let test_route_table () =
  List.iter
    (fun (label, inst, deadline_ms, want) ->
      let req = { (E.default_request inst) with E.deadline_ms } in
      let m, why = E.choose_explain req in
      Alcotest.(check string) label want (E.meth_to_string (E.choose req));
      Alcotest.(check string) (label ^ ": explained") want (E.meth_to_string m);
      Alcotest.(check bool) (label ^ ": has a reason") true (why <> ""))
    [
      ("4 attrs", card 4, None, "brute");
      ("5 attrs", card 5, None, "exact");
      ("4 attrs under 10 ms: attrs first", card 4, Some 10., "brute");
      ("4 set-form attrs under 10 ms", sets 4 3, Some 10., "brute");
      ("card, 0 ms", card 6, Some 0., "round-card");
      ("card, 10 ms", card 6, Some 10., "round-card");
      ("card, 24.9 ms", card 6, Some 24.9, "round-card");
      ("card, negative deadline", card 6, Some (-5.), "round-card");
      ("card, 25 ms", card 6, Some 25., "exact");
      ("card, no deadline", card 6, None, "exact");
      ("sets l_max 3, 10 ms", sets 6 3, Some 10., "round-set");
      ("sets l_max 3, 24.9 ms", sets 6 3, Some 24.9, "round-set");
      ("sets l_max 3, 25 ms", sets 6 3, Some 25., "exact");
      ("sets l_max 4, 0 ms", sets 6 4, Some 0., "greedy");
      ("sets l_max 4, 10 ms", sets 6 4, Some 10., "greedy");
      ("sets l_max 4, 25 ms", sets 6 4, Some 25., "exact");
      ("sets l_max 4, no deadline", sets 6 4, None, "exact");
    ]

let () =
  Alcotest.run "corpus"
    [
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "shape" `Quick test_corpus_shape;
        ] );
      ( "run",
        [
          Alcotest.test_case "rows deterministic" `Quick test_rows_deterministic;
        ] );
      ( "routing",
        [
          differential_prop;
          Alcotest.test_case "route decision table" `Quick test_route_table;
        ] );
    ]
