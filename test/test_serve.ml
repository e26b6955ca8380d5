(* The Serve layer: the LRU primitive, the generic JSON tree, canonical
   solution transport, the solution cache's soundness, and the daemon
   loop.

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
    ~attr_costs:(List.map (fun (a, c) -> (r a, c)) (Inst.attr_costs inst))
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
         (Inst.mods inst))
    ~publics:
      (List.map
         (fun (p : Inst.public_mod) ->
           {
             Inst.p_name = p.Inst.p_name ^ suffix;
             p_cost = p.Inst.p_cost;
             p_attrs = List.map r p.Inst.p_attrs;
           })
         (Inst.publics inst))
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

let test_lru_head_hit () =
  (* A hit on the most recent entry leaves the list as it is: a find
     then allocates only the table lookup's option and its own. *)
  let l = Lru.create 4 in
  List.iter (fun (k, v) -> Lru.add l k v) [ ("k1", 1); ("k2", 2); ("k3", 3) ];
  let order = Lru.to_list l in
  let finds = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to finds do
    ignore (Lru.find l "k3")
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (list (pair string int))) "order unchanged" order (Lru.to_list l);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d head hits, at most 4 each" words finds)
    true
    (words <= float_of_int (4 * finds))

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

let ids_of inst names = List.filter_map (Inst.find inst) names

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
      match Canon.transport ~src ~dst (ids_of inst s.Sol.hidden) with
      | None -> Alcotest.fail "transport must succeed on equal forms"
      | Some ids ->
          let s' = Sol.of_ids renamed ids in
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
  match Canon.transport ~src:(Canon.labeling a) ~dst:(Canon.labeling b) [ 0 ] with
  | None -> ()
  | Some _ -> Alcotest.fail "different forms must not transport"

(* A random bijective renaming to fresh names with every declaration
   list shuffled: attributes, modules, publics and the attribute lists
   inside them. Unlike a suffix, it changes the names' sort order. *)
let shuffle_rename seed (inst : Inst.t) =
  let rng = Svutil.Rng.create seed in
  let fwd = Hashtbl.create 64 and used = Hashtbl.create 64 in
  let rec fresh () =
    let s = String.init 6 (fun _ -> Char.chr (Char.code 'a' + Svutil.Rng.int rng 26)) in
    if Hashtbl.mem used s then fresh ()
    else begin
      Hashtbl.replace used s ();
      s
    end
  in
  let r x =
    match Hashtbl.find_opt fwd x with
    | Some y -> y
    | None ->
        let y = fresh () in
        Hashtbl.replace fwd x y;
        y
  in
  let shuffled l = Svutil.Rng.shuffle rng l in
  let rl l = shuffled (List.map r l) in
  Inst.make
    ~attr_costs:(shuffled (List.map (fun (a, c) -> (r a, c)) (Inst.attr_costs inst)))
    ~mods:
      (shuffled
         (List.map
            (fun (mr : Inst.module_req) ->
              {
                Inst.m_name = r mr.Inst.m_name;
                inputs = rl mr.Inst.inputs;
                outputs = rl mr.Inst.outputs;
                req =
                  (match mr.Inst.req with
                  | Req.Card _ as c -> c
                  | Req.Sets l ->
                      Req.Sets (shuffled (List.map (fun (i, o) -> (rl i, rl o)) l)));
              })
            (Inst.mods inst)))
    ~publics:
      (shuffled
         (List.map
            (fun (p : Inst.public_mod) ->
              {
                Inst.p_name = r p.Inst.p_name;
                p_cost = p.Inst.p_cost;
                p_attrs = rl p.Inst.p_attrs;
              })
            (Inst.publics inst)))
    ()

(* Each fixture keeps one form under renaming, found within the leaf
   budget. *)
let test_symmetric_fixtures () =
  List.iter
    (fun (name, inst) ->
      let lab = Canon.labeling inst in
      Alcotest.(check bool) (name ^ " labels within the budget") false (Canon.cut lab);
      List.iter
        (fun seed ->
          let lab' = Canon.labeling (shuffle_rename seed inst) in
          Alcotest.(check bool)
            (name ^ " renamed, within the budget")
            false (Canon.cut lab');
          Alcotest.(check string) (name ^ " keeps its form") (Canon.form_of_labeling lab)
            (Canon.form_of_labeling lab'))
        [ 1; 2; 3 ])
    (Svbench.Gen_instances.symmetric_fixtures ())

(* Nine private modules of 12 unit-cost inputs, each input in two pair
   options: one module per way of covering 12 vertices with disjoint
   cycles. Colour refinement cannot split such an instance, and its many
   orderings of non-isomorphic modules exhaust the leaf budget. *)
let cycle_modules () =
  let covers =
    [ [ 12 ]; [ 9; 3 ]; [ 8; 4 ]; [ 7; 5 ]; [ 6; 6 ]; [ 6; 3; 3 ]; [ 5; 4; 3 ];
      [ 4; 4; 4 ]; [ 3; 3; 3; 3 ] ]
  in
  let x c i = Printf.sprintf "c%d_x%d" c i in
  let mods =
    List.mapi
      (fun c lens ->
        let opts, _ =
          List.fold_left
            (fun (opts, base) l ->
              ( List.init l (fun i -> ([ x c (base + i); x c (base + ((i + 1) mod l)) ], []))
                @ opts,
                base + l ))
            ([], 0) lens
        in
        m (Printf.sprintf "m%d" c) (List.init 12 (x c)) [] (Req.Sets opts))
      covers
  in
  mk
    ~attr_costs:(List.concat (List.mapi (fun c _ -> List.init 12 (fun i -> (x c i, 1))) covers))
    ~mods ()

(* A labeling the budget cuts falls back to its first leaf: still a
   deterministic relabeling of the instance, so equal forms still prove
   isomorphism and a solution transports onto itself. *)
let test_budget_cut_stays_sound () =
  let inst = cycle_modules () in
  let lab = Canon.labeling inst in
  Alcotest.(check bool) "the search is cut" true (Canon.cut lab);
  let again = Canon.labeling inst in
  Alcotest.(check string) "same form on the same input" (Canon.form_of_labeling lab)
    (Canon.form_of_labeling again);
  let all = List.init (Inst.n_attrs inst) Fun.id in
  match Canon.transport ~src:lab ~dst:again all with
  | Some ids ->
      Alcotest.(check (list int)) "transported onto itself" all (List.sort compare ids)
  | None -> Alcotest.fail "equal forms must transport"

(* ------------------------------------------------------------------ *)
(* Serve.Cache units                                                   *)
(* ------------------------------------------------------------------ *)

let run_through cache req = fst (Serve.Cache.solve cache req)

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
  let r, status = Serve.Cache.solve cache req in
  Alcotest.(check string) "answered as a bypass" "bypass"
    (Serve.Cache.status_to_string status);
  Alcotest.(check (option string)) "no cache stat on a bypass" None
    (cache_status r);
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

let test_cache_skips_cut_brute () =
  (* A brute enumeration the deadline cuts answers unproven: a miss
     that leaves nothing stored. 22 attributes take seconds to
     enumerate in full. *)
  let names = List.init 22 (Printf.sprintf "x%02d") in
  let half keep = List.filteri (fun i _ -> keep i) names in
  let inst =
    mk
      ~attr_costs:(List.mapi (fun i a -> (a, 1 + (i mod 3))) names)
      ~mods:[ m "m" (half (fun i -> i < 11)) (half (fun i -> i >= 11)) (Req.Card [ (2, 2) ]) ]
      ()
  in
  let cache = Serve.Cache.create ~capacity:4 () in
  let req = { (E.default_request inst) with E.meth = E.Brute; deadline_ms = Some 20. } in
  let r, status = Serve.Cache.solve cache req in
  Alcotest.(check string) "a miss" "miss" (Serve.Cache.status_to_string status);
  Alcotest.(check bool) "unproven" false r.E.proven_optimal;
  Alcotest.(check (option string)) "deadline_hit" (Some "true")
    (List.assoc_opt "deadline_hit" r.E.stats);
  Alcotest.(check int) "nothing stored" 0 (Serve.Cache.length cache)

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
  (* Renamed resubmission: the same canonical form, so a hit with zero
     drift against a from-scratch solve, feasible on the renamed
     instance. *)
  let renamed = rename_instance "_r" inst in
  let r2 = run_through cache (exact_request renamed) in
  if cache_status r2 <> Some "hit" then
    QCheck2.Test.fail_report "renamed resubmission must hit";
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

let corpus =
  lazy
    (Array.of_list
       (List.map
          (fun (ir : Svbench.Corpus.inst_rec) -> ir.Svbench.Corpus.inst)
          (Svbench.Corpus.generate ~smoke:true ~seed:42 ())))

let gen_corpus_renaming =
  QCheck2.Gen.(
    pair (int_bound (Array.length (Lazy.force corpus) - 1)) (int_range 0 1_000_000))

(* A shuffled random renaming of a corpus instance: byte-equal form,
   equal digest, and a cache hit. *)
let corpus_renaming_prop (i, seed) =
  let inst = (Lazy.force corpus).(i) in
  let renamed = shuffle_rename seed inst in
  if not (String.equal (Canon.form inst) (Canon.form renamed)) then
    QCheck2.Test.fail_report "renaming changed the form";
  if not (String.equal (Canon.digest inst) (Canon.digest renamed)) then
    QCheck2.Test.fail_report "renaming changed the digest";
  let cache = Serve.Cache.create ~capacity:4 () in
  ignore (run_through cache (exact_request inst));
  match cache_status (run_through cache (exact_request renamed)) with
  | Some "hit" -> true
  | _ -> QCheck2.Test.fail_report "renamed resubmission missed the cache"

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
  let metrics = Svutil.Metrics.create () in
  let t =
    Serve.Daemon.create
      {
        (Serve.Daemon.default_config ()) with
        Serve.Daemon.verify_hits = true;
        metrics;
      }
  in
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
  (* A solve request the preflight rejects (W020) never derives. *)
  let rejected, _ =
    response_of t
      {|{"op":"solve","workflow":"gamma 4\nattr x\nattr y\nmodule m private inputs x outputs y\nrow m 0 -> 1\nrow m 1 -> 0\n"}|}
  in
  Alcotest.(check (option bool)) "preflight rejects" (Some false)
    (Json.bool_member "ok" rejected);
  Alcotest.(check (option int)) "one serve/derive span per admitted solve"
    (Some 3)
    (Option.map fst (Svutil.Metrics.span_stats metrics "serve/derive"));
  Alcotest.(check (option int)) "serve/parse spans every solve" (Some 4)
    (Option.map fst (Svutil.Metrics.span_stats metrics "serve/parse"));
  Alcotest.(check (option int)) "serve/preflight spans every parsed solve" (Some 4)
    (Option.map fst (Svutil.Metrics.span_stats metrics "serve/preflight"));
  Alcotest.(check (pair int int)) "one derivation, then two memo hits" (2, 1)
    (Metrics.counter_value metrics "serve.derive_hits",
     Metrics.counter_value metrics "serve.derive_misses");
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
  (* W042: a private module wider than requirement derivation can
     enumerate (3 inputs + 23 outputs) is rejected before derivation,
     instead of ending the loop. *)
  let wide =
    let ins = List.init 3 (Printf.sprintf "i%d")
    and outs = List.init 23 (Printf.sprintf "o%d") in
    String.concat "\n"
      (List.map (fun a -> "attr " ^ a) (ins @ outs)
      @ [
          Printf.sprintf "module m private inputs %s outputs %s"
            (String.concat " " ins) (String.concat " " outs);
          "row m 0 0 0 -> " ^ String.concat " " (List.map (fun _ -> "0") outs);
        ])
  in
  check_error
    (Printf.sprintf {|{"op":"solve","workflow":%s}|} (Serve.Response.str wide))
    "static" 1;
  check_error {|{"op":"solve","file":"examples/fig1.swf","method":"wat"}|}
    "unknown-name" 2;
  (* Fields outside the op's documented set are rejected, not ignored:
     a misspelt "method" must not silently run the default solver, and
     the removed engine knobs are no longer fields. The error keeps the
     request's id and the next request is still answered. *)
  List.iter
    (fun line -> check_error line "usage" 2)
    [
      {|{"op":"solve","file":"examples/fig1.swf","methd":"greedy"}|};
      {|{"op":"solve","file":"examples/fig1.swf","static_fixing":false}|};
      {|{"op":"solve","file":"examples/fig1.swf","jobs":2}|};
      {|{"op":"ping","file":"examples/fig1.swf"}|};
      (* 1e999 reads as infinity: a budget must be finite. *)
      {|{"op":"solve","file":"examples/fig1.swf","deadline_ms":1e999}|};
    ];
  let float_line =
    {|{"id":"f","op":"solve","file":"examples/fig1.swf","lp_mode":"float"}|}
  in
  check_error float_line "usage" 2;
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

(* A line nested far past the JSON depth limit gets a parse error at
   once, and the next line is answered. *)
let test_daemon_deep_nesting () =
  let input = Filename.temp_file "serve_in" ".jsonl" in
  let output = Filename.temp_file "serve_out" ".jsonl" in
  let oc = open_out input in
  output_string oc {|{"id":"deep","op":"ping","x":|};
  output_string oc (String.make 100_000 '[');
  output_string oc "\n{\"id\":\"p\",\"op\":\"ping\"}\n";
  close_out oc;
  let ic = open_in input and out = open_out output in
  let outcome = Serve.Daemon.serve_channels (daemon ()) ic out in
  close_in ic;
  close_out out;
  let lines = In_channel.with_open_text output In_channel.input_all in
  Sys.remove input;
  Sys.remove output;
  Alcotest.(check bool) "eof outcome" true (outcome = `Eof);
  match List.filter (( <> ) "") (String.split_on_char '\n' lines) with
  | [ err; pong ] -> (
      (match Json.of_string err with
      | Ok j ->
          let field k = Option.bind (Json.member "error" j) (Json.str_member k) in
          Alcotest.(check (option string)) "parse error" (Some "parse") (field "kind");
          let prefix = Printf.sprintf "request: nesting deeper than %d" Json.max_depth in
          Alcotest.(check bool) "cut at the limit" true
            (Option.fold ~none:false ~some:(String.starts_with ~prefix) (field "message"))
      | Error e -> Alcotest.fail ("bad response line: " ^ e));
      match Json.of_string pong with
      | Ok j ->
          Alcotest.(check (option bool)) "pong" (Some true) (Json.bool_member "pong" j)
      | Error e -> Alcotest.fail ("bad response line: " ^ e))
  | _ -> Alcotest.fail ("expected two responses, got: " ^ lines)

(* A row value outside its domain and two rows that give one input two
   outputs are parse errors that name their lines; the next line is
   still answered. *)
let test_daemon_row_errors () =
  let spec rows =
    Serve.Response.str ("attr a\nattr b\nmodule m private inputs a outputs b\n" ^ rows)
  in
  let input = Filename.temp_file "serve_in" ".jsonl" in
  let output = Filename.temp_file "serve_out" ".jsonl" in
  Out_channel.with_open_text input (fun oc ->
      Printf.fprintf oc "{\"id\":\"dom\",\"op\":\"solve\",\"workflow\":%s}\n"
        (spec "row m 0 -> 1\nrow m 1 -> 5\n");
      Printf.fprintf oc "{\"id\":\"fd\",\"op\":\"solve\",\"workflow\":%s}\n"
        (spec "row m 0 -> 1\nrow m 0 -> 0\n");
      output_string oc "{\"id\":\"p\",\"op\":\"ping\"}\n");
  let ic = open_in input and out = open_out output in
  let outcome = Serve.Daemon.serve_channels (daemon ()) ic out in
  close_in ic;
  close_out out;
  let lines = In_channel.with_open_text output In_channel.input_all in
  Sys.remove input;
  Sys.remove output;
  Alcotest.(check bool) "eof outcome" true (outcome = `Eof);
  let json l = match Json.of_string l with Ok j -> j | Error e -> Alcotest.fail ("bad response line: " ^ e) in
  match List.filter (( <> ) "") (String.split_on_char '\n' lines) with
  | [ dom; fd; pong ] ->
      List.iter
        (fun (line, message) ->
          let j = json line in
          let field f k = Option.bind (Json.member "error" j) (f k) in
          Alcotest.(check (option string)) "kind" (Some "parse") (field Json.str_member "kind");
          Alcotest.(check (option int)) "code" (Some 2) (field Json.int_member "code");
          Alcotest.(check (option string)) "message" (Some message) (field Json.str_member "message"))
        [
          (dom, "line 5: row value 5 outside domain 0..1 of b");
          (fd, "line 5: rows at lines 4 and 5 give input 0 of m two outputs");
        ];
      Alcotest.(check (option bool)) "pong" (Some true) (Json.bool_member "pong" (json pong))
  | _ -> Alcotest.fail ("expected three responses, got: " ^ lines)

(* A client that closed its end before reading: with SIGPIPE ignored,
   as the daemon arranges, the first response write fails with EPIPE
   and the loop ends the session instead of raising. *)
let test_daemon_closed_reader () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let input = Filename.temp_file "serve_in" ".jsonl" in
  let oc = open_out input in
  List.iter
    (fun id ->
      output_string oc (solve_line id);
      output_char oc '\n')
    [ "1"; "2" ];
  close_out oc;
  let r, w = Unix.pipe () in
  Unix.close r;
  let ic = open_in input and out = Unix.out_channel_of_descr w in
  let outcome = Serve.Daemon.serve_channels (daemon ()) ic out in
  close_in ic;
  close_out_noerr out;
  Sys.remove input;
  Alcotest.(check bool) "eof outcome" true (outcome = `Eof)

(* The same through the real binary: a [serve] whose stdout reader is
   gone still exits 0 and dumps its stats on stderr. *)
let test_daemon_closed_stdout () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name)
      "../bin/secure_view_cli.exe"
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process cli [| cli; "serve" |] in_r out_w err_w in
  List.iter Unix.close [ in_r; out_w; err_w; out_r ];
  let oc = Unix.out_channel_of_descr in_w in
  output_string oc (solve_line "1");
  output_char oc '\n';
  close_out oc;
  let ic = Unix.in_channel_of_descr err_r in
  let err = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  let prefix = "serve stats " in
  Alcotest.(check bool) "stats line on stderr" true
    (String.length err >= String.length prefix
    && String.sub err 0 (String.length prefix) = prefix)

(* {1 The two instance constructors}

   [Request.instance_of] builds an instance from the ids elaboration
   assigned; [Instance.of_workflow] builds it from names, deriving by
   name and interning once in [Instance.make]. The two must agree on
   everything downstream: the instance itself, its canonical form, the
   IP it compiles to, and the engine's answer. *)

let snapshot_view (s : Lp.Problem.snapshot) = Format.asprintf "%a" Lp.Problem.pp s

(* The engine's IP. *)
let ip_of inst =
  let problem, _ = Core.Exact.build_ip inst in
  problem

let answer (r : E.result) =
  (r.E.solution, r.E.lower_bound, r.E.proven_optimal, r.E.stats, r.E.method_used)

(* [None] when the two agree, else what differs. *)
let constructors_differ (spec : Wf.Parse.spec) =
  let by_ids = Serve.Request.instance_of spec in
  let by_names =
    Inst.of_workflow spec.Wf.Parse.workflow ~gamma:spec.Wf.Parse.gamma
      ~gamma_overrides:spec.Wf.Parse.gamma_overrides
      ~cost:(fun a -> List.assoc a spec.Wf.Parse.costs)
      ~publics:spec.Wf.Parse.publics ()
  in
  if by_ids <> by_names then Some "instance"
  else if Canon.form by_ids <> Canon.form by_names then Some "canonical form"
  else if snapshot_view (ip_of by_ids) <> snapshot_view (ip_of by_names) then Some "IP"
  else if
    answer (E.run (E.default_request by_ids)) <> answer (E.run (E.default_request by_names))
  then Some "engine answer"
  else None

let spec_of_text what text =
  match Serve.Request.spec_of_string ~preflight:true text with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "%s: %s" what (Serve.Request.message e)

(* A random workflow with random costs, publics and one gamma override,
   elaborated from its declarations. *)
let gen_spec =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let* n_modules = int_range 1 6 in
    let* max_sharing = int_range 1 3 in
    let rng = Svutil.Rng.create seed in
    let w =
      Wf.Gen.random_workflow rng { Wf.Gen.default with n_modules; max_sharing }
    in
    let costs = Wf.Gen.random_costs rng w in
    let publics = Wf.Gen.random_publics rng w in
    let gamma_overrides =
      match Wf.Workflow.module_names w with
      | m :: _ when Svutil.Rng.int rng 2 = 0 -> [ (m, 3) ]
      | _ -> []
    in
    let raw = Analysis.Wfcheck.raw_of_workflow ~publics ~costs ~gamma_overrides ~gamma:2 w in
    (* A random letter before every attribute name, so name order and
       declaration order disagree. *)
    let letter = Hashtbl.create 16 in
    let rename a =
      match Hashtbl.find_opt letter a with
      | Some a' -> a'
      | None ->
          let a' = String.make 1 (Char.chr (97 + Svutil.Rng.int rng 26)) ^ a in
          Hashtbl.add letter a a';
          a'
    in
    let raw =
      {
        raw with
        Wf.Parse.r_attrs =
          List.map
            (fun (a : Wf.Parse.raw_attr) -> { a with Wf.Parse.a_name = rename a.Wf.Parse.a_name })
            raw.Wf.Parse.r_attrs;
        r_modules =
          List.map
            (fun (m : Wf.Parse.raw_module) ->
              { m with Wf.Parse.m_inputs = List.map rename m.Wf.Parse.m_inputs;
                m_outputs = List.map rename m.Wf.Parse.m_outputs })
            raw.Wf.Parse.r_modules;
      }
    in
    return
      (match Wf.Parse.spec_of_raw raw with
      | Ok spec -> spec
      | Error e -> failwith ("generated workflow rejected: " ^ e)))

let test_constructors_on_pools () =
  let module T = Perfbench_traffic.Traffic in
  List.iter
    (fun (name, wl) ->
      List.iteri
        (fun i w ->
          match constructors_differ (spec_of_text name (T.render w)) with
          | None -> ()
          | Some what -> Alcotest.failf "%s pool member %d: the constructors differ in the %s" name i what)
        (T.pool_workflows wl))
    T.workloads

(* The programs the engine solves, pinned: the IP of every seed-42 pool
   member as printed, and the reduced program presolve makes of it
   (whose printed columns name the ones kept, with the fixed values
   [restore] fills in). Any
   change to the builders' variables, rows or row order, to presolve's
   reductions or to the printed form, and any change to which program
   [Core.Exact.program] picks, shows here. *)
let pool_programs_digest = "6102da7194724d572d8014c2cd43d3a8"

let test_pool_programs_pinned () =
  let module T = Perfbench_traffic.Traffic in
  let module P = Lp.Problem in
  let buf = Buffer.create (1 lsl 22) in
  let fmt = Format.formatter_of_buffer buf in
  let rats a = String.concat " " (Array.to_list (Array.map Rat.to_string a)) in
  List.iter
    (fun (name, wl) ->
      List.iteri
        (fun i w ->
          let inst = Serve.Request.instance_of (spec_of_text name (T.render w)) in
          let problem = ip_of inst in
          Format.fprintf fmt "%s %d@.%a" name i P.pp problem;
          match Lp.Presolve.run problem with
          | Lp.Presolve.Infeasible -> Format.fprintf fmt "infeasible@."
          | Lp.Presolve.Solved { values } -> Format.fprintf fmt "solved %s@." (rats values)
          | Lp.Presolve.Reduced { problem = r; restore } ->
              Format.fprintf fmt "fixed %s@.%a"
                (rats (restore (Array.make r.P.n Rat.zero)))
                P.pp r)
        (T.pool_workflows wl))
    T.workloads;
  Format.pp_print_flush fmt ();
  Alcotest.(check string) "MD5 of the printed programs" pool_programs_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* The solver's work on both seed-42 pools through [Engine.run] with
   auto routing, summed per pool. Only IEEE double arithmetic decides
   the float pass's pivots, so a float kernel that keeps every iterate
   keeps these sums exactly, and any change to the pivot sequence, the
   branching or the programs shows here. *)
let test_pool_solver_work () =
  let module T = Perfbench_traffic.Traffic in
  List.iter
    (fun (name, expected) ->
      let m = Svutil.Metrics.create () in
      List.iter
        (fun w -> ignore (E.run { (E.default_request (T.instance w)) with E.metrics = m }))
        (T.pool_workflows (List.assoc name T.workloads));
      List.iter
        (fun (c, n) ->
          Alcotest.(check int) (name ^ " " ^ c) n (Svutil.Metrics.counter_value m c))
        expected)
    [
      ( "solve_uncached",
        [
          ("ilp.nodes", 310);
          ("simplex.hybrid.float_pivots", 5083);
          ("certify.accepts", 310);
          ("certify.fallbacks", 0);
        ] );
      ( "mixed_churn",
        [
          ("ilp.nodes", 485);
          ("simplex.hybrid.float_pivots", 8301);
          ("certify.accepts", 485);
          ("certify.fallbacks", 0);
        ] );
    ]

(* {1 The derivation memo}

   [instance_of ~memo] must build exactly what [instance_of] builds: a
   hit hands back what deriving would, mapped to the request's own ids.
   [None] when the two agree, else what differs. *)

let memo_differs ~memo (spec : Wf.Parse.spec) =
  let plain = Serve.Request.instance_of spec in
  let memoed = Serve.Request.instance_of ~memo spec in
  let fields =
    [
      ("names", plain.Inst.names = memoed.Inst.names);
      ("costs", plain.Inst.costs = memoed.Inst.costs);
      ("rank", plain.Inst.rank = memoed.Inst.rank);
      ("by_rank", plain.Inst.by_rank = memoed.Inst.by_rank);
      ("pmods", plain.Inst.pmods = memoed.Inst.pmods);
      ("pubs", plain.Inst.pubs = memoed.Inst.pubs);
      ("set_form", plain.Inst.set_form = memoed.Inst.set_form);
    ]
  in
  match List.find_opt (fun (_, same) -> not same) fields with
  | Some (field, _) -> Some field
  | None ->
      if Canon.form plain <> Canon.form memoed then Some "canonical form"
      else if snapshot_view (ip_of plain) <> snapshot_view (ip_of memoed) then Some "IP"
      else None

let memo_counts metrics =
  (Metrics.counter_value metrics "serve.derive_hits", Metrics.counter_value metrics "serve.derive_misses")

(* One memo across every generated workflow: tables recur under other
   names, and the same spec a second time is all hits. *)
let gen_memo_metrics = Metrics.create ()
let gen_memo = Serve.Request.create_memo ~metrics:gen_memo_metrics ()

let memo_prop (spec : Wf.Parse.spec) =
  memo_differs ~memo:gen_memo spec = None
  &&
  let hits, misses = memo_counts gen_memo_metrics in
  let inst = Serve.Request.instance_of ~memo:gen_memo spec in
  memo_counts gen_memo_metrics = (hits + Array.length inst.Inst.pmods, misses)

(* Both seed-42 pools under three seeded renamings through one memo.
   Renaming and row shuffling keep every key, so the second and third
   renamings derive nothing, and the pools fit the memo. *)
let test_memo_on_pools () =
  let module T = Perfbench_traffic.Traffic in
  let metrics = Metrics.create () in
  let memo = Serve.Request.create_memo ~metrics () in
  let after_first = ref None in
  List.iter
    (fun seed ->
      let rng = Svutil.Rng.create seed in
      List.iter
        (fun (name, wl) ->
          List.iteri
            (fun i w ->
              let spec = spec_of_text name (T.render (T.rename rng w).T.wf) in
              match memo_differs ~memo spec with
              | None -> ()
              | Some what ->
                  Alcotest.failf "%s pool member %d, renaming seed %d: the memo differs in the %s"
                    name i seed what)
            (T.pool_workflows wl))
        T.workloads;
      let _, misses = memo_counts metrics in
      match !after_first with
      | None -> after_first := Some misses
      | Some m -> Alcotest.(check int) (Printf.sprintf "seed %d derives nothing new" seed) m misses)
    [ 1; 2; 3 ];
  let entries = Serve.Request.memo_entries memo in
  Alcotest.(check int) "no eviction" 0 (Lru.evictions entries);
  Alcotest.(check int) "one entry per miss" (Option.get !after_first) (Lru.length entries)

let spec_unchecked text =
  match Wf.Parse.parse_string text with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec rejected: %s" e

let module_key (spec : Wf.Parse.spec) =
  let w = spec.Wf.Parse.workflow in
  Option.get
    (Core.Derive.key w.Wf.Workflow.modules.(0) ~gamma:spec.Wf.Parse.mod_gamma.(0)
       ~max_bytes:Serve.Request.memo_max_bytes)

(* Each variant changes one thing derivation reads and gets an entry of
   its own; a renamed copy with its rows reordered gets none. *)
let test_memo_key_separation () =
  let base = "gamma 2\nattr a\nattr b\nattr c\nmodule m private inputs a b outputs c\n" in
  let variants =
    [
      ("base", base ^ "row m 0 0 -> 1\nrow m 1 1 -> 0\n");
      ("gamma", "gamma 1\nattr a\nattr b\nattr c\nmodule m private inputs a b outputs c\n\
                 row m 0 0 -> 1\nrow m 1 1 -> 0\n");
      ("input/output split", "gamma 2\nattr a\nattr b\nattr c\nmodule m private inputs a outputs b c\n\
                              row m 0 -> 0 1\nrow m 1 -> 1 0\n");
      ("domain", "gamma 2\nattr a\nattr b dom 3\nattr c\nmodule m private inputs a b outputs c\n\
                  row m 0 0 -> 1\nrow m 1 1 -> 0\n");
      ("row value", base ^ "row m 0 0 -> 1\nrow m 1 1 -> 1\n");
    ]
  in
  let metrics = Metrics.create () in
  let memo = Serve.Request.create_memo ~metrics () in
  let check_same what spec =
    match memo_differs ~memo spec with
    | None -> ()
    | Some field -> Alcotest.failf "%s: the memo differs in the %s" what field
  in
  List.iter (fun (what, text) -> check_same what (spec_unchecked text)) variants;
  Alcotest.(check (pair int int)) "every variant derived" (0, 5) (memo_counts metrics);
  Alcotest.(check int) "five entries" 5 (Lru.length (Serve.Request.memo_entries memo));
  check_same "renamed"
    (spec_unchecked
       "gamma 2\nattr z\nattr y\nattr x\nmodule q private inputs y x outputs z\n\
        row q 1 1 -> 0\nrow q 0 0 -> 1\n");
  Alcotest.(check (pair int int)) "renamed copy hits" (1, 5) (memo_counts metrics)

(* A module whose gamma is [g]: one key per gamma. *)
let gamma_spec g =
  spec_unchecked
    (Printf.sprintf "gamma %d\nattr a\nattr b\nmodule m private inputs a outputs b\n\
                     row m 0 -> 1\nrow m 1 -> 0\n" g)

let test_memo_bounds () =
  let metrics = Metrics.create () in
  let memo = Serve.Request.create_memo ~metrics () in
  let entries = Serve.Request.memo_entries memo in
  let cap = Serve.Request.memo_capacity in
  let derive spec = ignore (Serve.Request.instance_of ~memo spec) in
  for g = 1 to cap do
    derive (gamma_spec g)
  done;
  (* Touch the oldest entry, so the second oldest is the least recently used. *)
  derive (gamma_spec 1);
  derive (gamma_spec (cap + 1));
  Alcotest.(check int) "full" cap (Lru.length entries);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions entries);
  Alcotest.(check bool) "touched entry kept" true (Lru.mem entries (module_key (gamma_spec 1)));
  Alcotest.(check bool) "least recently used evicted" false
    (Lru.mem entries (module_key (gamma_spec 2)));
  Alcotest.(check bool) "newest kept" true (Lru.mem entries (module_key (gamma_spec (cap + 1))));
  let stored_unchanged what spec =
    let before = memo_counts metrics in
    for _ = 1 to 2 do
      match memo_differs ~memo spec with
      | None -> ()
      | Some field -> Alcotest.failf "%s: the memo differs in the %s" what field
    done;
    Alcotest.(check (pair int int)) (what ^ ": derived every time")
      (fst before, snd before + 2) (memo_counts metrics);
    Alcotest.(check bool) (what ^ ": not stored") true (Lru.length entries = cap)
  in
  (* Ten boolean inputs: 1,024 rows of eleven values, a key longer than
     the bound. *)
  let ins = List.init 10 (Printf.sprintf "i%d") in
  let b = Buffer.create 65536 in
  Buffer.add_string b "gamma 2\n";
  List.iter (fun a -> Printf.bprintf b "attr %s\n" a) ins;
  Printf.bprintf b "attr o\nmodule wide private inputs %s outputs o\n" (String.concat " " ins);
  for v = 0 to 1023 do
    Printf.bprintf b "row wide %s -> %d\n"
      (String.concat " " (List.init 10 (fun j -> string_of_int ((v lsr j) land 1))))
      (v mod 3 land 1)
  done;
  let long_key = spec_unchecked (Buffer.contents b) in
  Alcotest.(check bool) "key over the bound" true
    (Core.Derive.key long_key.Wf.Parse.workflow.Wf.Workflow.modules.(0) ~gamma:2
       ~max_bytes:Serve.Request.memo_max_bytes
    = None);
  stored_unchanged "long key" long_key;
  (* Twelve outputs of domains 2 and 3 and gamma 216: a short key, but
     hundreds of minimal hidden sets. *)
  let outs = List.init 12 (Printf.sprintf "o%d") in
  let b = Buffer.create 1024 in
  Buffer.add_string b "gamma 216\nattr a\n";
  List.iteri (fun i o -> Printf.bprintf b "attr %s dom %d\n" o (2 + (i land 1))) outs;
  Printf.bprintf b "module m private inputs a outputs %s\nrow m 0 -> %s\n" (String.concat " " outs)
    (String.concat " " (List.map (fun _ -> "0") outs));
  let many_masks = spec_unchecked (Buffer.contents b) in
  (match Core.Derive.derive many_masks.Wf.Parse.workflow.Wf.Workflow.modules.(0) ~gamma:216 with
  | Core.Derive.Set_masks masks ->
      Alcotest.(check bool) "masks over the bound" true
        (8 * List.length masks > Serve.Request.memo_max_bytes)
  | Core.Derive.Card_form _ -> Alcotest.fail "expected the set form");
  stored_unchanged "many masks" many_masks

(* A module wider than derivation enumerates (the preflight's W042,
   skipped here) raises as without a memo, and leaves nothing behind. *)
let test_memo_exception () =
  let k = Svutil.Subset.max_universe + 1 in
  let names = List.init k (Printf.sprintf "w%d") in
  let ins = List.filteri (fun i _ -> i < 2) names and outs = List.filteri (fun i _ -> i >= 2) names in
  let spec =
    spec_unchecked
      (Printf.sprintf "%smodule m private inputs %s outputs %s\nrow m 0 0 -> %s\n"
         (String.concat "" (List.map (Printf.sprintf "attr %s\n") names))
         (String.concat " " ins) (String.concat " " outs)
         (String.concat " " (List.map (fun _ -> "0") outs)))
  in
  let raised f = match f () with _ -> None | exception e -> Some (Printexc.to_string e) in
  let plain = raised (fun () -> Serve.Request.instance_of spec) in
  Alcotest.(check bool) "derivation raises" true (plain <> None);
  let memo = Serve.Request.create_memo () in
  for _ = 1 to 2 do
    Alcotest.(check (option string)) "same exception through the memo" plain
      (raised (fun () -> Serve.Request.instance_of ~memo spec))
  done;
  Alcotest.(check int) "nothing stored" 0 (Lru.length (Serve.Request.memo_entries memo))

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
          Alcotest.test_case "head hit stays put" `Quick test_lru_head_hit;
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
          Alcotest.test_case "symmetric fixtures keep their form" `Quick
            test_symmetric_fixtures;
          Alcotest.test_case "budget cut stays sound" `Quick
            test_budget_cut_stays_sound;
          prop ~count:300 "shuffled renaming of a corpus instance hits"
            ~print:(fun (i, seed) ->
              Printf.sprintf "corpus member %d, renaming seed %d" i seed)
            gen_corpus_renaming corpus_renaming_prop;
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
          Alcotest.test_case "cut brute answer is not stored" `Quick
            test_cache_skips_cut_brute;
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
          Alcotest.test_case "deep nesting then ping" `Quick test_daemon_deep_nesting;
          Alcotest.test_case "closed reader ends the session" `Quick
            test_daemon_closed_reader;
          Alcotest.test_case "closed stdout exits 0 with stats" `Quick
            test_daemon_closed_stdout;
          Alcotest.test_case "row errors name their lines" `Quick test_daemon_row_errors;
        ] );
      ( "intern",
        [
          prop ~count:100 "instance_of = of_workflow on Gen workflows"
            ~print:(fun (spec : Wf.Parse.spec) ->
              Format.asprintf "%a" Wf.Workflow.pp spec.Wf.Parse.workflow)
            gen_spec
            (fun spec -> constructors_differ spec = None);
          Alcotest.test_case "instance_of = of_workflow on seed-42 pools" `Quick
            test_constructors_on_pools;
          Alcotest.test_case "pool programs pinned" `Quick test_pool_programs_pinned;
          Alcotest.test_case "pool solver work" `Quick test_pool_solver_work;
          prop ~count:100 "instance_of ~memo = instance_of on Gen workflows"
            ~print:(fun (spec : Wf.Parse.spec) ->
              Format.asprintf "%a" Wf.Workflow.pp spec.Wf.Parse.workflow)
            gen_spec memo_prop;
          Alcotest.test_case "instance_of ~memo = instance_of on renamed pools" `Quick
            test_memo_on_pools;
          Alcotest.test_case "memo keys separate what derivation reads" `Quick
            test_memo_key_separation;
          Alcotest.test_case "memo bounds" `Quick test_memo_bounds;
          Alcotest.test_case "derivation exceptions are not memoized" `Quick test_memo_exception;
        ] );
    ]
