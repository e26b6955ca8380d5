(* The Serve layer: the LRU and admission-slot primitives, the generic
   JSON tree, canonical solution transport, the solution cache's
   soundness, and the daemon loop.

   The load-bearing property is differential: a cache hit on a
   bijectively renamed resubmission must return exactly the optimum a
   from-scratch solve would, and its transported solution must pass the
   Theorem 4/8 safety re-check — zero drift, by construction not by
   luck. *)

module Q = Rat
module Inst = Core.Instance
module Sol = Core.Solution
module E = Core.Engine
module Canon = Core.Canon
module Req = Core.Requirement
module Lru = Svutil.Lru
module Sem = Svutil.Sem
module Json = Svutil.Json
module Metrics = Svutil.Metrics

let q = Alcotest.testable Q.pp Q.equal

let mk ~attr_costs ~mods ?(publics = []) () =
  Inst.make
    ~attr_costs:(List.map (fun (a, c) -> (a, Q.of_int c)) attr_costs)
    ~mods ~publics ()

let m name inputs outputs req = { Inst.m_name = name; inputs; outputs; req }

(* A bijective renaming: suffix every attribute, module and public
   name. Isomorphic to the original by construction. *)
let rename_instance suffix (inst : Inst.t) =
  let r a = a ^ suffix in
  Inst.make
    ~attr_costs:(List.map (fun (a, c) -> (r a, c)) inst.Inst.attr_costs)
    ~mods:
      (List.map
         (fun (mr : Inst.module_req) ->
           {
             Inst.m_name = mr.Inst.m_name ^ suffix;
             inputs = List.map r mr.Inst.inputs;
             outputs = List.map r mr.Inst.outputs;
             req =
               (match mr.Inst.req with
               | Req.Card _ as c -> c
               | Req.Sets l ->
                   Req.Sets
                     (List.map (fun (i, o) -> (List.map r i, List.map r o)) l));
           })
         inst.Inst.mods)
    ~publics:
      (List.map
         (fun (p : Inst.public_mod) ->
           {
             Inst.p_name = p.Inst.p_name ^ suffix;
             p_cost = p.Inst.p_cost;
             p_attrs = List.map r p.Inst.p_attrs;
           })
         inst.Inst.publics)
    ()

let exact_request ?(metrics = Metrics.nop) inst =
  { (E.default_request inst) with E.meth = E.Exact; E.metrics = metrics }

let cost_of (r : E.result) =
  Option.map (fun (s : Sol.t) -> s.Sol.cost) r.E.solution

let cache_status (r : E.result) = List.assoc_opt "cache" r.E.stats

(* ------------------------------------------------------------------ *)
(* Svutil.Lru                                                          *)
(* ------------------------------------------------------------------ *)

let test_lru_capacity_eviction () =
  let l = Lru.create 2 in
  Lru.add l "k1" 1;
  Lru.add l "k2" 2;
  Alcotest.(check int) "length" 2 (Lru.length l);
  (* Promote k1, then overflow: k2 is now the LRU entry. *)
  Alcotest.(check (option int)) "find promotes" (Some 1) (Lru.find l "k1");
  Lru.add l "k3" 3;
  Alcotest.(check int) "length at capacity" 2 (Lru.length l);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l);
  Alcotest.(check bool) "k2 evicted" false (Lru.mem l "k2");
  Alcotest.(check bool) "k1 survives" true (Lru.mem l "k1");
  Alcotest.(check (list (pair string int)))
    "MRU order" [ ("k3", 3); ("k1", 1) ] (Lru.to_list l)

let test_lru_replace_no_eviction () =
  let l = Lru.create 2 in
  Lru.add l "k1" 1;
  Lru.add l "k2" 2;
  Lru.add l "k1" 10;
  Alcotest.(check int) "replace keeps length" 2 (Lru.length l);
  Alcotest.(check int) "replace is not an eviction" 0 (Lru.evictions l);
  Alcotest.(check (list (pair string int)))
    "replace promotes" [ ("k1", 10); ("k2", 2) ] (Lru.to_list l)

let test_lru_remove_and_bounds () =
  let l = Lru.create 1 in
  Lru.add l "k" 1;
  Lru.remove l "k";
  Alcotest.(check (option int)) "removed" None (Lru.find l "k");
  Alcotest.(check int) "empty" 0 (Lru.length l);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create 0))

(* ------------------------------------------------------------------ *)
(* Svutil.Sem                                                          *)
(* ------------------------------------------------------------------ *)

let test_sem_clamp () =
  let s = Sem.create 4 in
  Alcotest.(check int) "grant within pool" 2 (Sem.acquire s 2);
  Alcotest.(check int) "clamped to available" 2 (Sem.try_acquire s 3);
  Alcotest.(check int) "pool exhausted" 0 (Sem.try_acquire s 1);
  (* acquire never refuses: the minimum grant oversubscribes by 1. *)
  Alcotest.(check int) "minimum grant" 1 (Sem.acquire s 5);
  Alcotest.(check int) "in_use overshoots by the minimum grant" 5
    (Sem.in_use s);
  Sem.release s 5;
  Alcotest.(check int) "drained" 0 (Sem.in_use s);
  Sem.release s 10;
  Alcotest.(check int) "release clamps at 0" 0 (Sem.in_use s)

let test_sem_with_slots_exception_safe () =
  let s = Sem.create 3 in
  (try
     Sem.with_slots s 2 (fun granted ->
         Alcotest.(check int) "granted inside" 2 granted;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "released on exception" 0 (Sem.in_use s)

(* ------------------------------------------------------------------ *)
(* Svutil.Json                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let src = {|{"a":[1,2.5,-3],"s":"q\"\\\nend","b":true,"n":null,"o":{}}|} in
  match Json.of_string src with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      Alcotest.(check (option string))
        "string member" (Some "q\"\\\nend") (Json.str_member "s" j);
      Alcotest.(check (option bool)) "bool member" (Some true)
        (Json.bool_member "b" j);
      Alcotest.(check (option int)) "missing member" None (Json.int_member "z" j);
      match Json.of_string (Json.to_string j) with
      | Ok j' ->
          Alcotest.(check bool) "print/parse round trip" true (j = j')
      | Error e -> Alcotest.fail ("re-parse: " ^ e))

let test_json_numbers () =
  let ok_int s expected =
    match Json.of_string s with
    | Ok v -> Alcotest.(check (option int)) s expected (Json.to_int v)
    | Error e -> Alcotest.fail e
  in
  ok_int "3" (Some 3);
  ok_int "3.0" (Some 3);
  ok_int "3.5" None;
  ok_int "2000000001" None;
  Alcotest.(check string) "integral float prints bare" "42"
    (Json.number_to_string 42.)

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  bad "{\"a\":1,}";
  bad "[1 2]";
  bad "\"unterminated";
  bad "{} trailing";
  bad "nul"

(* ------------------------------------------------------------------ *)
(* Canon: labeling and solution transport                              *)
(* ------------------------------------------------------------------ *)

(* A small instance with publics, two of them interchangeable (same
   cost, symmetric attrs) to exercise the slot-matching tie rule. *)
let with_publics () =
  mk
    ~attr_costs:[ ("a1", 1); ("a2", 2); ("a3", 1) ]
    ~mods:
      [
        m "m1" [ "a1" ] [ "a2" ] (Req.Card [ (1, 0) ]);
        m "m2" [ "a2" ] [ "a3" ] (Req.Card [ (0, 1) ]);
      ]
    ~publics:
      [
        { Inst.p_name = "p1"; p_cost = Q.of_int 2; p_attrs = [ "a1" ] };
        { Inst.p_name = "p2"; p_cost = Q.of_int 2; p_attrs = [ "a3" ] };
      ]
    ()

let test_labeling_agrees_with_digest_and_form () =
  let inst = with_publics () in
  let lab = Canon.labeling inst in
  Alcotest.(check string)
    "digest_of_labeling = digest" (Canon.digest inst)
    (Canon.digest_of_labeling lab);
  Alcotest.(check string)
    "form_of_labeling = form" (Canon.form inst)
    (Canon.form_of_labeling lab)

let test_transport_renamed () =
  let inst = with_publics () in
  let renamed = rename_instance "_r" inst in
  let src = Canon.labeling inst and dst = Canon.labeling renamed in
  Alcotest.(check string)
    "renamed instance has the same form" (Canon.form_of_labeling src)
    (Canon.form_of_labeling dst);
  let r = E.run (exact_request inst) in
  match r.E.solution with
  | None -> Alcotest.fail "expected a solution"
  | Some s -> (
      match Canon.transport ~src ~dst s with
      | None -> Alcotest.fail "transport must succeed on equal forms"
      | Some s' ->
          Alcotest.check q "cost preserved" s.Sol.cost s'.Sol.cost;
          Alcotest.(check bool)
            "transported solution feasible on the renamed instance" true
            (Sol.is_feasible renamed s');
          List.iter
            (fun a ->
              Alcotest.(check bool)
                (a ^ " carries the suffix") true
                (Filename.check_suffix a "_r"))
            (s'.Sol.hidden @ s'.Sol.privatized))

let test_transport_rejects_different_forms () =
  let a =
    mk ~attr_costs:[ ("x", 1) ]
      ~mods:[ m "m" [ "x" ] [] (Req.Card [ (1, 0) ]) ]
      ()
  in
  let b =
    mk ~attr_costs:[ ("x", 2) ]
      ~mods:[ m "m" [ "x" ] [] (Req.Card [ (1, 0) ]) ]
      ()
  in
  let s = { Sol.hidden = [ "x" ]; privatized = []; cost = Q.of_int 1 } in
  match Canon.transport ~src:(Canon.labeling a) ~dst:(Canon.labeling b) s with
  | None -> ()
  | Some _ -> Alcotest.fail "different forms must not transport"

(* ------------------------------------------------------------------ *)
(* Serve.Cache units                                                   *)
(* ------------------------------------------------------------------ *)

let run_through cache req = E.run_cached (Serve.Cache.engine_cache cache) req

let test_cache_miss_then_hit () =
  let metrics = Metrics.create () in
  let cache = Serve.Cache.create ~metrics ~capacity:4 () in
  let inst = with_publics () in
  let r1 = run_through cache (exact_request inst) in
  Alcotest.(check (option string)) "first is a miss" (Some "miss")
    (cache_status r1);
  let r2 = run_through cache (exact_request (rename_instance "_r" inst)) in
  Alcotest.(check (option string)) "renamed resubmission hits" (Some "hit")
    (cache_status r2);
  Alcotest.(check (option q)) "same optimum" (cost_of r1) (cost_of r2);
  Alcotest.(check bool) "hit is proven optimal" true r2.E.proven_optimal;
  Alcotest.(check int) "hits counted" 1 (Serve.Cache.hits cache);
  Alcotest.(check int) "misses counted" 1 (Serve.Cache.misses cache);
  Alcotest.(check int) "one entry" 1 (Serve.Cache.length cache);
  Alcotest.(check int) "serve.hits counter" 1
    (Metrics.counter_value metrics "serve.hits")

let test_cache_bypasses_unproven_methods () =
  let cache = Serve.Cache.create ~capacity:4 () in
  let inst = with_publics () in
  let req = { (E.default_request inst) with E.meth = E.Greedy } in
  Alcotest.(check bool) "greedy is not cacheable" false
    (Serve.Cache.cacheable req);
  let r = run_through cache req in
  Alcotest.(check (option string))
    "run_cached still tags the miss" (Some "miss") (cache_status r);
  Alcotest.(check int) "nothing stored" 0 (Serve.Cache.length cache);
  Alcotest.(check int) "no miss counted on bypass" 0
    (Serve.Cache.misses cache)

let test_cache_infeasible_entries () =
  let cache = Serve.Cache.create ~capacity:4 () in
  let infeasible =
    mk ~attr_costs:[ ("x", 1) ]
      ~mods:[ m "m" [ "x" ] [] (Req.Card [ (9, 0) ]) ]
      ()
  in
  let r1 = run_through cache (exact_request infeasible) in
  Alcotest.(check (option q)) "infeasible" None (cost_of r1);
  Alcotest.(check int) "proven infeasibility is stored" 1
    (Serve.Cache.length cache);
  let r2 = run_through cache (exact_request (rename_instance "_r" infeasible)) in
  Alcotest.(check (option string)) "renamed infeasible hits" (Some "hit")
    (cache_status r2);
  Alcotest.(check (option q)) "still infeasible" None (cost_of r2);
  Alcotest.(check (option string))
    "flagged infeasible" (Some "true")
    (List.assoc_opt "infeasible" r2.E.stats)

let test_cache_collision_falls_back_to_solve () =
  (* A constant key function forces every instance into one LRU slot:
     the digest "collides", the form check must catch it, and the
     request must fall back to a real solve with the right answer. *)
  let metrics = Metrics.create () in
  let cache =
    Serve.Cache.create ~key:(fun _ -> "same") ~metrics ~capacity:4 ()
  in
  let a = with_publics () in
  let b =
    mk ~attr_costs:[ ("z1", 5); ("z2", 7) ]
      ~mods:[ m "m" [ "z1"; "z2" ] [] (Req.Card [ (1, 0) ]) ]
      ()
  in
  let ra = run_through cache (exact_request a) in
  let rb = run_through cache (exact_request b) in
  Alcotest.(check (option string)) "collision is a miss, not a wrong hit"
    (Some "miss") (cache_status rb);
  Alcotest.(check int) "collision counted" 1
    (Metrics.counter_value metrics "serve.collisions");
  let scratch_b = E.run (exact_request b) in
  Alcotest.(check (option q)) "fallback solve is correct" (cost_of scratch_b)
    (cost_of rb);
  (* The overwrite means [a] now collides the other way. *)
  let ra2 = run_through cache (exact_request a) in
  Alcotest.(check (option string)) "overwritten entry misses too"
    (Some "miss") (cache_status ra2);
  Alcotest.(check (option q)) "and re-solves correctly" (cost_of ra)
    (cost_of ra2)

let test_cache_eviction_counting () =
  let metrics = Metrics.create () in
  let cache = Serve.Cache.create ~metrics ~capacity:1 () in
  let a = with_publics () in
  let b =
    mk ~attr_costs:[ ("y", 1) ]
      ~mods:[ m "m" [ "y" ] [] (Req.Card [ (1, 0) ]) ]
      ()
  in
  ignore (run_through cache (exact_request a));
  ignore (run_through cache (exact_request b));
  Alcotest.(check int) "capacity 1 evicts" 1 (Serve.Cache.evictions cache);
  Alcotest.(check int) "serve.evictions counter" 1
    (Metrics.counter_value metrics "serve.evictions");
  (* The evicted instance re-misses and re-solves. *)
  let ra = run_through cache (exact_request a) in
  Alcotest.(check (option string)) "evicted entry misses" (Some "miss")
    (cache_status ra)

(* ------------------------------------------------------------------ *)
(* Cache soundness property                                            *)
(* ------------------------------------------------------------------ *)

let prop ?(count = 30) ?print name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ?print gen f)

let gen_workflow_instance =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_modules = int_range 1 3 in
    let rng = Svutil.Rng.create seed in
    let w =
      Wf.Gen.random_workflow rng
        { Wf.Gen.default with n_modules; max_inputs = 2; max_outputs = 1 }
    in
    let costs = Wf.Gen.random_costs rng w in
    let cost a = List.assoc a costs in
    return (w, Inst.of_workflow w ~gamma:2 ~cost ()))

(* Theorem 4/8 safety of a solution against the source workflow: every
   private module standalone-safe on its visible attributes (there are
   no publics in the generated workflows). *)
let workflow_safe w (s : Sol.t) =
  List.for_all
    (fun (wm : Wf.Wmodule.t) ->
      Privacy.Standalone.is_safe wm
        ~visible:(Svutil.Listx.diff (Wf.Wmodule.attr_names wm) s.Sol.hidden)
        ~gamma:2)
    (Wf.Workflow.modules w)

let cache_soundness_prop (w, inst) =
  let cache = Serve.Cache.create ~capacity:4 () in
  let r1 = run_through cache (exact_request inst) in
  (* Identical resubmission: always a hit (same instance, same form),
     and the hit must pass the workflow-level safety re-check. *)
  let r_same = run_through cache (exact_request inst) in
  if cache_status r_same <> Some "hit" then
    QCheck2.Test.fail_report "identical resubmission must hit";
  if cost_of r_same <> cost_of r1 then
    QCheck2.Test.fail_report "identical hit changed the optimum";
  (match r_same.E.solution with
  | Some s when not (workflow_safe w s) ->
      QCheck2.Test.fail_report "hit solution fails the Theorem 4/8 re-check"
  | _ -> ());
  (* Renamed resubmission: zero drift against a from-scratch solve,
     hit or miss (a refinement tie may legitimately miss); a hit must
     be feasible on the renamed instance. *)
  let renamed = rename_instance "_r" inst in
  let r2 = run_through cache (exact_request renamed) in
  let scratch = E.run (exact_request renamed) in
  (match (cost_of r2, cost_of scratch) with
  | Some a, Some b when Q.equal a b -> ()
  | None, None -> ()
  | _ -> QCheck2.Test.fail_report "renamed optimum drifted from scratch");
  (match r2.E.solution with
  | Some s when cache_status r2 = Some "hit" ->
      if not (Sol.is_feasible renamed s) then
        QCheck2.Test.fail_report "transported solution infeasible"
  | _ -> ());
  true

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

let daemon () =
  Serve.Daemon.create
    { (Serve.Daemon.default_config ()) with Serve.Daemon.verify_hits = true }

let spec_text =
  "gamma 2\nattr a cost 1\nattr b cost 1\nattr c cost 1\n\
   module m private inputs a b outputs c\nfn m xor\n"

let solve_line ?(extra = "") id =
  Printf.sprintf {|{"id":%s,"op":"solve","workflow":%s%s}|}
    (Serve.Response.str id) (Serve.Response.str spec_text) extra

let response_of t line =
  match Serve.Daemon.handle_line t line with
  | Some r, cont -> (
      match Json.of_string r with
      | Ok j -> (j, cont)
      | Error e -> Alcotest.fail ("response is not JSON: " ^ e ^ ": " ^ r))
  | None, _ -> Alcotest.fail "expected a response"

let test_daemon_protocol () =
  let t = daemon () in
  let pong, _ = response_of t {|{"id":"p","op":"ping"}|} in
  Alcotest.(check (option bool)) "pong" (Some true) (Json.bool_member "pong" pong);
  Alcotest.(check (option string)) "id echoed" (Some "p")
    (Json.str_member "id" pong);
  let r1, _ = response_of t (solve_line "s1") in
  Alcotest.(check (option bool)) "solve ok" (Some true)
    (Json.bool_member "ok" r1);
  Alcotest.(check (option string)) "cold miss" (Some "miss")
    (Json.str_member "cache" r1);
  let r2, _ = response_of t (solve_line "s2") in
  Alcotest.(check (option string)) "verified hit" (Some "hit")
    (Json.str_member "cache" r2);
  (match (Json.member "result" r1, Json.member "result" r2) with
  | Some a, Some b ->
      Alcotest.(check (option string))
        "hit and miss solutions agree"
        (Option.map Json.to_string (Json.member "solution" a))
        (Option.map Json.to_string (Json.member "solution" b))
  | _ -> Alcotest.fail "missing result objects");
  let bypass, _ = response_of t (solve_line ~extra:{|,"cache":false|} "s3") in
  Alcotest.(check (option string)) "cache:false bypasses" (Some "bypass")
    (Json.str_member "cache" bypass);
  let stats, _ = response_of t {|{"id":"st","op":"stats"}|} in
  (match Json.member "stats" stats with
  | Some st ->
      Alcotest.(check (option int)) "one hit" (Some 1)
        (Json.int_member "hits" st);
      Alcotest.(check (option int)) "one miss" (Some 1)
        (Json.int_member "misses" st)
  | None -> Alcotest.fail "stats response lacks stats");
  let bye, cont = response_of t {|{"id":"q","op":"shutdown"}|} in
  Alcotest.(check (option bool)) "shutdown acked" (Some true)
    (Json.bool_member "shutdown" bye);
  Alcotest.(check bool) "loop stops" true (cont = `Stop)

let test_daemon_errors () =
  let t = daemon () in
  let check_error line expected_kind expected_code =
    let r, cont = response_of t line in
    Alcotest.(check (option bool)) "not ok" (Some false)
      (Json.bool_member "ok" r);
    (match Json.member "error" r with
    | Some e ->
        Alcotest.(check (option string)) "kind" (Some expected_kind)
          (Json.str_member "kind" e);
        Alcotest.(check (option int)) "code" (Some expected_code)
          (Json.int_member "code" e)
    | None -> Alcotest.fail "missing error object");
    Alcotest.(check bool) "errors do not stop the loop" true (cont = `Continue)
  in
  check_error "not json" "parse" 2;
  check_error {|{"op":"wat"}|} "unknown-name" 2;
  check_error {|{"op":"solve"}|} "usage" 2;
  check_error {|{"op":"solve","workflow":"attr a cost 1\nmodule m private\n"}|}
    "parse" 2;
  (* W020 (unreachable gamma) parses to a valid workflow but fails the
     Wfcheck preflight with severity Error — exit-code-1 semantics. *)
  check_error
    {|{"op":"solve","workflow":"gamma 4\nattr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 1\nrow m 1 -> 0\n"}|}
    "static" 1;
  check_error {|{"op":"solve","file":"examples/fig1.swf","method":"wat"}|}
    "unknown-name" 2;
  (* "float" names no LP route: the error keeps the request's id and
     the next request is still answered. *)
  let float_line =
    {|{"id":"f","op":"solve","file":"examples/fig1.swf","lp_mode":"float"}|}
  in
  check_error float_line "unknown-name" 2;
  let r, _ = response_of t float_line in
  Alcotest.(check (option string)) "error carries the id" (Some "f")
    (Json.str_member "id" r);
  let pong, _ = response_of t {|{"id":"p","op":"ping"}|} in
  Alcotest.(check (option bool)) "next request answered" (Some true)
    (Json.bool_member "pong" pong);
  (* Blank lines are skipped without a response. *)
  match Serve.Daemon.handle_line t "   " with
  | None, `Continue -> ()
  | _ -> Alcotest.fail "blank line must be skipped"

let test_daemon_serve_channels () =
  let t = daemon () in
  let input = Filename.temp_file "serve_in" ".jsonl" in
  let output = Filename.temp_file "serve_out" ".jsonl" in
  let oc = open_out input in
  output_string oc (solve_line "1");
  output_string oc "\n\n";
  output_string oc (solve_line "2");
  output_string oc "\n{\"id\":\"3\",\"op\":\"shutdown\"}\n";
  output_string oc (solve_line "never-reached");
  output_string oc "\n";
  close_out oc;
  let ic = open_in input and out = open_out output in
  let outcome = Serve.Daemon.serve_channels t ic out in
  close_in ic;
  close_out out;
  Alcotest.(check bool) "shutdown outcome" true (outcome = `Shutdown);
  let ic = open_in output in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove input;
  Sys.remove output;
  let lines = List.rev !lines in
  Alcotest.(check int) "three responses, none after shutdown" 3
    (List.length lines);
  List.iter
    (fun l ->
      match Json.of_string l with
      | Ok j ->
          Alcotest.(check (option bool)) "ok" (Some true)
            (Json.bool_member "ok" j)
      | Error e -> Alcotest.fail ("bad response line: " ^ e))
    lines

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "capacity and eviction order" `Quick
            test_lru_capacity_eviction;
          Alcotest.test_case "replace is not an eviction" `Quick
            test_lru_replace_no_eviction;
          Alcotest.test_case "remove and bounds" `Quick
            test_lru_remove_and_bounds;
        ] );
      ( "sem",
        [
          Alcotest.test_case "clamping grants" `Quick test_sem_clamp;
          Alcotest.test_case "with_slots releases on exception" `Quick
            test_sem_with_slots_exception_safe;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "canon",
        [
          Alcotest.test_case "labeling agrees with digest/form" `Quick
            test_labeling_agrees_with_digest_and_form;
          Alcotest.test_case "transport across a renaming" `Quick
            test_transport_renamed;
          Alcotest.test_case "transport rejects unequal forms" `Quick
            test_transport_rejects_different_forms;
        ] );
      ( "cache",
        [
          Alcotest.test_case "miss then renamed hit" `Quick
            test_cache_miss_then_hit;
          Alcotest.test_case "unproven methods bypass" `Quick
            test_cache_bypasses_unproven_methods;
          Alcotest.test_case "proven infeasibility is cached" `Quick
            test_cache_infeasible_entries;
          Alcotest.test_case "digest collision falls back to solve" `Quick
            test_cache_collision_falls_back_to_solve;
          Alcotest.test_case "eviction counting" `Quick
            test_cache_eviction_counting;
          prop ~count:40 "hit = scratch optimum, Theorem 4/8 safe"
            ~print:(fun (_, inst) -> Format.asprintf "%a" Inst.pp inst)
            gen_workflow_instance cache_soundness_prop;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "protocol round trip" `Quick test_daemon_protocol;
          Alcotest.test_case "error responses and codes" `Quick
            test_daemon_errors;
          Alcotest.test_case "serve_channels loop" `Quick
            test_daemon_serve_channels;
        ] );
    ]
