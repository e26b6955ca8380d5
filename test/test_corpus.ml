(* Tests for the scenario corpus (bench/corpus.ml) and the routing-table
   tuner (bench/tune.ml):

   - determinism: one seed fixes the generated instance set and the
     measured rows (modulo wall-clock fields) byte for byte;
   - the checked-in artifacts stay consistent: bench/routing.json equals
     the compiled-in [Engine.fitted_routing], refitting from the
     checked-in bench/corpus_rows.json reproduces that table, and the
     winner passes the held-out champion/challenger gate (the PR's
     acceptance criterion);
   - champion/challenger fitting on synthetic rows: quality-regressing
     candidates are rejected however fast they are, and the promotion
     margin holds back marginal winners;
   - differential routing properties: [Auto] with the fitted table costs
     the same as invoking the routed method directly, and no table —
     fitted, hand-set, or random — ever routes an instance beyond the
     brute-force limit to brute. *)

module E = Core.Engine
module C = Svbench.Corpus
module T = Svbench.Tune
module J = Svutil.Json
module Lx = Svutil.Listx

let base = Filename.dirname Sys.executable_name
let bench f = Filename.concat base ("../bench/" ^ f)
let read_all path = In_channel.with_open_bin path In_channel.input_all

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
    (List.length (Lx.dedup (List.map (fun (r : C.inst_rec) -> r.C.id) full)));
  (* The feature tags must be what the router will recompute. *)
  List.iter
    (fun (r : C.inst_rec) ->
      if E.features_of_instance r.C.inst <> r.C.feats then
        Alcotest.failf "%s: stored features drift from the extractor" r.C.id)
    full

let test_rows_deterministic () =
  let recs = Lx.take 10 (C.generate ~smoke:true ~seed:7 ()) in
  let dump rows = J.to_string (C.rows_to_json ~times:false ~seed:7 rows) in
  Alcotest.(check string) "rows byte-identical modulo times"
    (dump (C.run recs))
    (dump (C.run recs))

let test_rows_roundtrip () =
  let recs = Lx.take 4 (C.generate ~smoke:true ~seed:5 ()) in
  let rows = C.run recs in
  match J.of_string (J.to_string (C.rows_to_json ~seed:5 rows)) with
  | Error m -> Alcotest.fail m
  | Ok j -> (
      match C.rows_of_json j with
      | Error m -> Alcotest.fail m
      | Ok rows' ->
          Alcotest.(check int) "row count" (List.length rows)
            (List.length rows');
          List.iter2
            (fun (a : C.row) (b : C.row) ->
              Alcotest.(check string) "id" a.C.r_id b.C.r_id;
              Alcotest.(check string) "method" a.C.r_method b.C.r_method;
              Alcotest.(check bool) "cost" true (a.C.r_cost = b.C.r_cost);
              Alcotest.(check bool) "feats" true (a.C.r_feats = b.C.r_feats);
              Alcotest.(check bool) "proven" a.C.r_proven b.C.r_proven;
              Alcotest.(check (float 1e-9)) "time" a.C.r_time_ms b.C.r_time_ms)
            rows rows')

(* Checked-in artifacts ------------------------------------------------- *)

let checked_in_rows () =
  match J.of_string (read_all (bench "corpus_rows.json")) with
  | Error m -> Alcotest.fail ("corpus_rows.json: " ^ m)
  | Ok j -> (
      match C.rows_of_json j with
      | Error m -> Alcotest.fail ("corpus_rows.json: " ^ m)
      | Ok rows -> rows)

let test_routing_json_in_sync () =
  match J.of_string (read_all (bench "routing.json")) with
  | Error m -> Alcotest.fail ("routing.json: " ^ m)
  | Ok j -> (
      match E.routing_of_json j with
      | Error m -> Alcotest.fail ("routing.json: " ^ m)
      | Ok t ->
          Alcotest.(check bool)
            "bench/routing.json equals Engine.fitted_routing" true
            (t = E.fitted_routing))

(* The acceptance gate: refitting from the checked-in rows reproduces
   the compiled-in table, and on the held-out split it is promoted —
   zero quality regressions and geomean no slower than the hand-set
   champion. Deterministic: the rows (including times) are data. *)
let test_refit_reproduces_and_gates () =
  let rows = checked_in_rows () in
  let v, problems = T.check ~rows E.fitted_routing in
  Alcotest.(check (list string)) "check finds no problems" [] problems;
  Alcotest.(check bool) "fitted table is promoted" true v.T.v_promoted;
  Alcotest.(check int) "zero holdout quality regressions" 0
    v.T.v_challenger_holdout.T.e_regressions;
  Alcotest.(check bool) "holdout geomean no slower than hand-set" true
    (v.T.v_challenger_holdout.T.e_geomean_ms
    <= v.T.v_champion_holdout.T.e_geomean_ms)

(* Synthetic fitting ---------------------------------------------------- *)

let mk_feats ?(modules = 2) attrs =
  {
    E.f_attrs = attrs;
    f_modules = modules;
    f_depth = 1;
    f_fanout = 1;
    f_lmax = 1;
    f_card_frac = 1.0;
    f_public_frac = 0.0;
  }

let mk_row id attrs m ~cost ~proven ~time =
  {
    C.r_id = id;
    r_family = "synthetic";
    r_method = m;
    r_feats = mk_feats attrs;
    r_cost = Option.map Rat.of_int cost;
    r_proven = proven;
    r_refused = cost = None;
    r_time_ms = time;
  }

(* Brute is proven-optimal everywhere but only cheap up to 6 attributes;
   greedy and the rounders are fastest of all but lose quality. A sound
   tuner must pick the 6-attribute brute cut and reject the all-greedy /
   all-rounding challengers however fast they look. *)
let synthetic_rows n =
  List.concat
    (List.init n (fun i ->
         let attrs = 3 + (i mod 12) in
         let id = Printf.sprintf "syn%02d" i in
         let brute_time = if attrs <= 6 then 0.01 else 50.0 in
         [
           mk_row id attrs "greedy" ~cost:(Some 2) ~proven:false ~time:0.001;
           mk_row id attrs "round-card" ~cost:(Some 2) ~proven:false
             ~time:0.002;
           mk_row id attrs "round-set" ~cost:(Some 2) ~proven:false
             ~time:0.002;
           mk_row id attrs "exact" ~cost:(Some 1) ~proven:true ~time:1.0;
           mk_row id attrs "brute" ~cost:(Some 1) ~proven:true
             ~time:brute_time;
         ]))

let test_fit_synthetic () =
  let v = T.fit (synthetic_rows 48) in
  Alcotest.(check string) "picks the 6-attribute brute cut"
    "fitted(brute attrs<=6)" v.T.v_challenger.E.r_name;
  Alcotest.(check bool) "promoted" true v.T.v_promoted;
  Alcotest.(check int) "no train regressions" 0
    v.T.v_challenger_train.T.e_regressions;
  Alcotest.(check string) "winner is the challenger"
    v.T.v_challenger.E.r_name v.T.v_winner.E.r_name

(* Brute is uniformly 1% faster than exact on instances too big for the
   hand-set brute rule: a real but sub-margin win. The 2% default
   margin must hold the champion; a smaller margin promotes. *)
let marginal_rows n =
  List.concat
    (List.init n (fun i ->
         let attrs = 11 + (i mod 4) in
         let id = Printf.sprintf "mar%02d" i in
         [
           mk_row id attrs "greedy" ~cost:(Some 2) ~proven:false ~time:0.5;
           mk_row id attrs "round-card" ~cost:(Some 2) ~proven:false ~time:0.5;
           mk_row id attrs "round-set" ~cost:(Some 2) ~proven:false ~time:0.5;
           mk_row id attrs "exact" ~cost:(Some 1) ~proven:true ~time:1.0;
           mk_row id attrs "brute" ~cost:(Some 1) ~proven:true ~time:0.99;
         ]))

let test_fit_margin_holds_champion () =
  let rows = marginal_rows 40 in
  let v = T.fit rows in
  Alcotest.(check bool) "sub-margin challenger is not promoted" false
    v.T.v_promoted;
  Alcotest.(check string) "champion retained" "hand-set" v.T.v_winner.E.r_name;
  let v' = T.fit ~margin:0.005 rows in
  Alcotest.(check bool) "smaller margin promotes" true v'.T.v_promoted

(* Routing properties --------------------------------------------------- *)

let smoke_pool =
  lazy (Array.of_list (C.generate ~smoke:true ~seed:42 ()))

let differential_prop =
  prop ~count:40 "auto cost equals the directly-invoked routed method"
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

let gen_cmp = QCheck2.Gen.oneofl [ E.Le; E.Lt; E.Gt; E.Ge ]

let gen_meth_any =
  QCheck2.Gen.oneofl
    [ E.Auto; E.Greedy; E.Round_card; E.Round_set; E.Exact; E.Brute ]

let gen_threshold =
  QCheck2.Gen.(
    map2
      (fun m e -> float_of_int m *. (10. ** float_of_int e))
      (int_range (-1000) 1000) (int_range (-3) 3))

let gen_guard =
  QCheck2.Gen.(
    map2
      (fun (f, c) v -> { E.g_feat = f; g_cmp = c; g_val = v })
      (pair (oneofl E.feature_names) gen_cmp)
      gen_threshold)

let gen_table_of gen_meth =
  QCheck2.Gen.(
    map
      (fun rules ->
        {
          E.r_name = "random";
          rules =
            List.map (fun (gs, m) -> { E.guards = gs; route = m }) rules;
        })
      (list_size (int_range 0 5)
         (pair (list_size (int_range 0 2) gen_guard) gen_meth)))

(* Extends the PR-4 refusal tests: whatever the table says — including
   rules that name brute or auto outright — the clamps keep instances
   beyond the brute-force limit off brute, and [route] never answers
   [Auto]. *)
let never_brute_prop =
  prop ~count:300 "no table routes >25-attr instances to brute"
    QCheck2.Gen.(
      triple (gen_table_of gen_meth_any)
        (int_range (Core.Exact.brute_force_limit + 1) 80)
        (option (float_range 0. 100.)))
    (fun (table, attrs, deadline_ms) ->
      let m = E.route table (mk_feats attrs) ~deadline_ms in
      m <> E.Brute && m <> E.Auto)

let fitted_never_brute =
  prop ~count:100 "fitted and hand-set tables respect the brute limit"
    QCheck2.Gen.(
      pair (int_range (Core.Exact.brute_force_limit + 1) 200) bool)
    (fun (attrs, hand) ->
      let table = if hand then E.hand_set_routing else E.fitted_routing in
      E.route table (mk_feats attrs) ~deadline_ms:None <> E.Brute)

let gen_meth_concrete =
  QCheck2.Gen.oneofl
    [ E.Greedy; E.Round_card; E.Round_set; E.Exact; E.Brute ]

let routing_json_roundtrip =
  prop ~count:200 "routing tables round-trip through Svutil.Json"
    (gen_table_of gen_meth_concrete)
    (fun table ->
      match
        E.routing_of_json
          (Result.get_ok (J.of_string (J.to_string (E.routing_to_json table))))
      with
      | Ok t -> t = table
      | Error _ -> false)

let test_clamps () =
  (* Round_card on a set-form instance is clamped to Round_set. *)
  let sets = { (mk_feats 30) with E.f_card_frac = 0.5 } in
  let card_table =
    { E.r_name = "t"; rules = [ { E.guards = []; route = E.Round_card } ] }
  in
  Alcotest.(check string) "round-card clamps to round-set on sets"
    "round-set"
    (E.meth_to_string (E.route card_table sets ~deadline_ms:None));
  (* An empty table falls through to the hand-set strategy, on every
     one of its branches. *)
  let empty = { E.r_name = "empty"; rules = [] } in
  let sets lmax = { (mk_feats 30) with E.f_card_frac = 0.5; f_lmax = lmax } in
  List.iter
    (fun (label, f, deadline_ms, want) ->
      let m, why = E.route_explain empty f ~deadline_ms in
      Alcotest.(check string)
        ("empty table falls through to hand-set: " ^ label)
        want (E.meth_to_string m);
      Alcotest.(check string) ("explain names the fall-through: " ^ label)
        "empty: fall-through to hand-set" why)
    [
      ("<= 10 attrs", mk_feats 4, None, "brute");
      ("tight deadline, all-card", mk_feats 30, Some 10., "round-card");
      ("tight deadline, lmax <= 3", sets 3, Some 10., "round-set");
      ("tight deadline, lmax > 3", sets 4, Some 10., "greedy");
      ("no deadline", sets 4, None, "exact");
      ("deadline at the threshold", mk_feats 30, Some 25., "exact");
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
          Alcotest.test_case "rows JSON round-trip" `Quick test_rows_roundtrip;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "routing.json in sync" `Quick
            test_routing_json_in_sync;
          Alcotest.test_case "refit reproduces and passes the gate" `Quick
            test_refit_reproduces_and_gates;
        ] );
      ( "tune",
        [
          Alcotest.test_case "synthetic fit" `Quick test_fit_synthetic;
          Alcotest.test_case "promotion margin" `Quick
            test_fit_margin_holds_champion;
        ] );
      ( "routing",
        [
          differential_prop;
          never_brute_prop;
          fitted_never_brute;
          routing_json_roundtrip;
          Alcotest.test_case "clamps and fall-through" `Quick test_clamps;
        ] );
    ]
