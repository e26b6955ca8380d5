module D = Svutil.Deadline

type meth = Auto | Greedy | Round_card | Round_set | Exact | Brute

let meth_to_string = function
  | Auto -> "auto"
  | Greedy -> "greedy"
  | Round_card -> "round-card"
  | Round_set -> "round-set"
  | Exact -> "exact"
  | Brute -> "brute"

let meth_of_string = function
  | "auto" -> Some Auto
  | "greedy" -> Some Greedy
  | "round-card" | "alg1" -> Some Round_card
  | "round-set" | "lp" -> Some Round_set
  | "exact" -> Some Exact
  | "brute" -> Some Brute
  | _ -> None

type request = {
  inst : Instance.t;
  meth : meth;
  deadline_ms : float option;
  node_limit : int;
  jobs : int;
  seed : int;
  trials : int;
  warm_seed : Solution.t option;
  metrics : Svutil.Metrics.t;
}

let default_request inst =
  {
    inst;
    meth = Auto;
    deadline_ms = None;
    node_limit = Lp.Ilp.default_node_limit;
    jobs = 1;
    seed = 0;
    trials = 4;
    warm_seed = None;
    metrics = Svutil.Metrics.nop;
  }

type solved_state = { solved_inst : Instance.t; canon : string Lazy.t }

type result = {
  solution : Solution.t option;
  lower_bound : Rat.t option;
  proven_optimal : bool;
  ratio : float option;
  timings : (string * float) list;
  stats : (string * string) list;
  method_used : meth;
  metrics : Svutil.Metrics.t;
  state : solved_state option;
}

(* Phase timing: one clock-read pair per phase feeds both the registry
   (as a span nested under [run]'s "solve" span) and the [(label, ms)]
   pairs that [timings] reports, so the two can never disagree. Solvers
   accumulate phases in reverse; [run] appends the total. *)
let phase metrics phases label f =
  let r, ms = Svutil.Metrics.timed metrics label f in
  phases := (label, ms) :: !phases;
  r

let make_result ~metrics ~phases ~method_used ?(stats = []) ?solution
    ?lower_bound ?(proven_optimal = false) () =
  let ratio =
    match (solution, lower_bound) with
    | Some _, _ when proven_optimal -> Some 1.0
    | Some (s : Solution.t), Some lb when Rat.gt lb Rat.zero ->
        Some (Rat.to_float (Rat.div s.Solution.cost lb))
    | Some (s : Solution.t), Some _ when Rat.is_zero s.Solution.cost -> Some 1.0
    | _ -> None
  in
  {
    solution;
    lower_bound;
    proven_optimal;
    ratio;
    timings = List.rev !phases;
    stats;
    method_used;
    metrics;
    state = None;
  }

let greedy_solution inst =
  match Greedy.solve inst with
  | s when Solution.is_feasible inst s -> Some s
  | _ | (exception Invalid_argument _) -> None

(* When an LP-rounding method's relaxation blows its budget, fall back
   to the greedy solution rather than returning nothing: the engine
   contract is that a deadline hit degrades quality, not availability. *)
let greedy_fallback ~phases ~method_used ~stats (req : request) =
  let solution =
    phase req.metrics phases "greedy-fallback" (fun () ->
        greedy_solution req.inst)
  in
  make_result ~metrics:req.metrics ~phases ~method_used
    ~stats:(("deadline_hit", "true") :: stats)
    ?solution ()

let solve_greedy (req : request) =
  let phases = ref [] in
  let solution =
    phase req.metrics phases "greedy" (fun () -> greedy_solution req.inst)
  in
  let stats =
    match solution with None -> [ ("infeasible", "true") ] | Some _ -> []
  in
  make_result ~metrics:req.metrics ~phases ~method_used:Greedy ~stats
    ?solution ()

(* Algorithm 1 (Theorem 5). The LP relaxation returns exact rationals,
   which the rounding guarantee needs: it does not survive float
   round-off of the x values. *)
let solve_round_card (req : request) =
  let phases = ref [] in
  if not (Exact.all_cardinality req.inst) then
    make_result ~metrics:req.metrics ~phases ~method_used:Round_card
      ~stats:
        [ ("refused", "instance has explicit set constraints; use round-set") ]
      ()
  else
    let deadline = D.of_ms_opt req.deadline_ms in
    match
      phase req.metrics phases "lp" (fun () ->
          Card_lp.lp_relaxation ~deadline ~metrics:req.metrics req.inst)
    with
    | exception D.Expired ->
        greedy_fallback ~phases ~method_used:Round_card ~stats:[] req
    | `Infeasible ->
        make_result ~metrics:req.metrics ~phases ~method_used:Round_card
          ~stats:[ ("infeasible", "true") ]
          ()
    | `Optimal (x, bound) ->
        let trials = max 1 req.trials in
        let solution =
          phase req.metrics phases "round" (fun () ->
              let base = Svutil.Rng.create req.seed in
              let rngs = Array.init trials (fun _ -> Svutil.Rng.split base) in
              Rounding.best_of trials (fun i ->
                  Rounding.algorithm1 ~metrics:req.metrics rngs.(i) req.inst
                    ~x))
        in
        make_result ~metrics:req.metrics ~phases ~method_used:Round_card
          ~stats:[ ("trials", string_of_int trials) ]
          ~solution ~lower_bound:bound ()

let solve_round_set (req : request) =
  let phases = ref [] in
  let deadline = D.of_ms_opt req.deadline_ms in
  match
    phase req.metrics phases "lp" (fun () ->
        Set_lp.lp_relaxation ~deadline ~metrics:req.metrics req.inst)
  with
  | exception D.Expired ->
      greedy_fallback ~phases ~method_used:Round_set ~stats:[] req
  | `Infeasible ->
      make_result ~metrics:req.metrics ~phases ~method_used:Round_set
        ~stats:[ ("infeasible", "true") ]
        ()
  | `Optimal (x, bound) ->
      let solution =
        phase req.metrics phases "round" (fun () ->
            Rounding.threshold req.inst ~x)
      in
      make_result ~metrics:req.metrics ~phases ~method_used:Round_set
        ~stats:
          [ ("lmax", string_of_int (Instance.lmax (Instance.to_sets req.inst))) ]
        ~solution ~lower_bound:bound ()

let solve_exact (req : request) =
  let phases = ref [] in
  let deadline = D.of_ms_opt req.deadline_ms in
  (* The static pre-pass is sound (optimum-preserving) but not free, so
     it runs as its own phase. [Exact.solve] without [~attr_fixings] is
     the unpruned search the flow tests and bench twins compare
     against. *)
  let attr_fixings =
    phase req.metrics phases "flow" (fun () ->
        Flow.fixings (Flow.analyze ~metrics:req.metrics req.inst))
  in
  let outcome, (st : Lp.Ilp.stats) =
    phase req.metrics phases "search" (fun () ->
        Exact.solve_with_stats ~node_limit:req.node_limit ~jobs:req.jobs
          ~deadline ~metrics:req.metrics ?seed:req.warm_seed ~attr_fixings
          req.inst)
  in
  let stats =
    (match req.warm_seed with
    | Some _ -> [ ("warm_seeded", "true") ]
    | None -> [])
    @ [
        ("static_fixed", string_of_int (List.length attr_fixings));
        ("nodes", string_of_int st.nodes);
        ("node_limit", string_of_int st.node_limit);
        ("limit_hit", string_of_bool st.limit_hit);
        ("deadline_hit", string_of_bool st.deadline_hit);
      ]
    @
    match st.root_bound with
    | Some b -> [ ("root_bound", Rat.to_string b) ]
    | None -> []
  in
  match outcome with
  | Some { Exact.solution; proven_optimal } ->
      let lower_bound =
        if proven_optimal then Some solution.Solution.cost else st.root_bound
      in
      make_result ~metrics:req.metrics ~phases ~method_used:Exact ~stats
        ~solution ?lower_bound ~proven_optimal ()
  | None ->
      make_result ~metrics:req.metrics ~phases ~method_used:Exact
        ~stats:(("infeasible", "true") :: stats)
        ()

let solve_brute (req : request) =
  let phases = ref [] in
  match
    phase req.metrics phases "enumerate" (fun () ->
        Exact.brute_force_checked req.inst)
  with
  | Error (Exact.Too_many_attrs { attrs; limit } as r) ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute
        ~stats:
          [
            ("refused", Exact.refusal_to_string r);
            ("attrs", string_of_int attrs);
            ("limit", string_of_int limit);
          ]
        ()
  | Ok None ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute
        ~stats:[ ("infeasible", "true") ]
        ()
  | Ok (Some s) ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute ~solution:s
        ~lower_bound:s.Solution.cost ~proven_optimal:true ()

let methods = [ Greedy; Round_card; Round_set; Exact; Brute ]

(* {2 Structural features}

   The routing features are cheap instance statistics — one O(modules +
   wiring) pass, microseconds next to any solve. The same extractor
   tags every corpus instance (bench/corpus.ml), so the fitted table is
   evaluated on exactly the numbers [choose] will see. *)

type features = {
  f_attrs : int;
  f_modules : int;
  f_depth : int;
  f_fanout : int;
  f_lmax : int;
  f_card_frac : float;
  f_public_frac : float;
}

let features_of_instance (inst : Instance.t) =
  let mods = Array.of_list inst.Instance.mods in
  let n_mods = Array.length mods in
  let producer = Hashtbl.create (4 * (n_mods + 1)) in
  Array.iteri
    (fun i (m : Instance.module_req) ->
      List.iter
        (fun o -> if not (Hashtbl.mem producer o) then Hashtbl.add producer o i)
        m.Instance.outputs)
    mods;
  let consumers = Hashtbl.create (4 * (n_mods + 1)) in
  Array.iter
    (fun (m : Instance.module_req) ->
      List.iter
        (fun a ->
          Hashtbl.replace consumers a
            (1 + Option.value ~default:0 (Hashtbl.find_opt consumers a)))
        m.Instance.inputs)
    mods;
  (* Longest producer-to-consumer module chain. Instances are DAGs by
     construction everywhere in this library; should a cycle ever be
     built through [Instance.make], the on-stack guard stops the count
     instead of looping. *)
  let memo = Array.make (max 1 n_mods) 0 in
  let state = Array.make (max 1 n_mods) 0 in
  let rec depth i =
    if state.(i) = 2 then memo.(i)
    else if state.(i) = 1 then 0
    else begin
      state.(i) <- 1;
      let d =
        List.fold_left
          (fun acc a ->
            match Hashtbl.find_opt producer a with
            | Some j when j <> i -> max acc (depth j)
            | _ -> acc)
          0 mods.(i).Instance.inputs
      in
      state.(i) <- 2;
      memo.(i) <- 1 + d;
      memo.(i)
    end
  in
  let f_depth = ref 0 in
  Array.iteri (fun i _ -> f_depth := max !f_depth (depth i)) mods;
  let n_card =
    Array.fold_left
      (fun acc (m : Instance.module_req) ->
        match m.Instance.req with Requirement.Card _ -> acc + 1 | _ -> acc)
      0 mods
  in
  let n_pub = List.length inst.Instance.publics in
  {
    f_attrs = List.length (Instance.attrs inst);
    f_modules = n_mods;
    f_depth = !f_depth;
    f_fanout = Hashtbl.fold (fun _ c acc -> max acc c) consumers 0;
    f_lmax = Instance.lmax inst;
    f_card_frac =
      (if n_mods = 0 then 1.0 else float_of_int n_card /. float_of_int n_mods);
    f_public_frac =
      (if n_mods + n_pub = 0 then 0.0
       else float_of_int n_pub /. float_of_int (n_mods + n_pub));
  }

let feature_names =
  [
    "attrs"; "modules"; "depth"; "fanout"; "lmax"; "card_frac"; "public_frac";
    "deadline_ms";
  ]

(* [deadline_ms] is a pseudo-feature of the request, not the instance:
   no deadline reads as infinity, so finite [lt]/[le] guards only fire
   on genuinely budgeted requests. *)
let feature_value f ~deadline_ms = function
  | "attrs" -> float_of_int f.f_attrs
  | "modules" -> float_of_int f.f_modules
  | "depth" -> float_of_int f.f_depth
  | "fanout" -> float_of_int f.f_fanout
  | "lmax" -> float_of_int f.f_lmax
  | "card_frac" -> f.f_card_frac
  | "public_frac" -> f.f_public_frac
  | "deadline_ms" -> Option.value ~default:infinity deadline_ms
  | _ -> nan

(* {2 Decision-list routing}

   [Auto] dispatch is a data value: an ordered rule list, each rule a
   conjunction of threshold guards over the features above. The first
   matching rule routes (subject to the safety clamps); an empty table
   or a fall-through lands on the hand-set strategy, which is kept both
   as the final fallback and as the champion baseline the corpus-fitted
   tables must beat (bench/tune.ml). *)

type cmp = Le | Lt | Gt | Ge
type guard = { g_feat : string; g_cmp : cmp; g_val : float }
type rule = { guards : guard list; route : meth }
type routing = { r_name : string; rules : rule list }

let cmp_to_string = function Le -> "le" | Lt -> "lt" | Gt -> "gt" | Ge -> "ge"

let cmp_of_string = function
  | "le" -> Some Le
  | "lt" -> Some Lt
  | "gt" -> Some Gt
  | "ge" -> Some Ge
  | _ -> None

let guard_holds f ~deadline_ms g =
  let v = feature_value f ~deadline_ms g.g_feat in
  (* An unknown feature name yields nan: every comparison is false, so
     a rule guarding on it can never fire. [routing_of_json] rejects
     unknown names outright; this is the belt for hand-built tables. *)
  match g.g_cmp with
  | Le -> v <= g.g_val
  | Lt -> v < g.g_val
  | Gt -> v > g.g_val
  | Ge -> v >= g.g_val

(* Safety clamps, applied to whatever the table decides: never route an
   instance to a method that would refuse it. Brute force refuses more
   than [Exact.brute_force_limit] attributes, and Algorithm 1's
   cardinality rounding refuses explicit set constraints. *)
let clamp f m =
  match m with
  | Brute when f.f_attrs > Exact.brute_force_limit -> Exact
  | Round_card when f.f_card_frac < 1.0 -> Round_set
  | Auto -> Exact
  | m -> m

(* The PR-4 hand-set strategy, as a table value so it can be evaluated,
   compared and serialized like any challenger. Thresholds: instances
   with at most [brute_attrs] attributes enumerate faster than they
   presolve; below [tight_deadline_ms] a branch-and-bound run cannot
   finish a root LP reliably, so an LP-rounding method matched to the
   constraint form (or greedy as last resort) is the best use of the
   budget. Its last rule always fires, so it is also the fall-through
   for tables whose rules all miss. *)
let brute_attrs = 10
let tight_deadline_ms = 25.

let hand_set_routing =
  let g g_feat g_cmp g_val = { g_feat; g_cmp; g_val } in
  {
    r_name = "hand-set";
    rules =
      [
        { guards = [ g "attrs" Le (float_of_int brute_attrs) ]; route = Brute };
        {
          guards =
            [ g "deadline_ms" Lt tight_deadline_ms; g "card_frac" Ge 1. ];
          route = Round_card;
        };
        {
          guards = [ g "deadline_ms" Lt tight_deadline_ms; g "lmax" Le 3. ];
          route = Round_set;
        };
        { guards = [ g "deadline_ms" Lt tight_deadline_ms ]; route = Greedy };
        { guards = []; route = Exact };
      ];
  }

let route_explain table f ~deadline_ms =
  let describe r m =
    let guards =
      if r.guards = [] then "always"
      else
        String.concat " && "
          (List.map
             (fun g ->
               Printf.sprintf "%s %s %s" g.g_feat (cmp_to_string g.g_cmp)
                 (Svutil.Json.number_to_string g.g_val))
             r.guards)
    in
    Printf.sprintf "%s -> %s%s" guards
      (meth_to_string r.route)
      (if m <> r.route then ", clamped to " ^ meth_to_string m else "")
  in
  let rec first_match i = function
    | [] -> None
    | r :: rest ->
        if List.for_all (guard_holds f ~deadline_ms) r.guards then Some (i, r)
        else first_match (i + 1) rest
  in
  match first_match 1 table.rules with
  | Some (i, r) ->
      let m = clamp f r.route in
      (m, Printf.sprintf "%s: rule %d (%s)" table.r_name i (describe r m))
  | None ->
      let m =
        match first_match 1 hand_set_routing.rules with
        | Some (_, r) -> clamp f r.route
        | None -> Exact (* unreachable: the last hand-set rule has no guards *)
      in
      (m, Printf.sprintf "%s: fall-through to hand-set" table.r_name)

let route table f ~deadline_ms = fst (route_explain table f ~deadline_ms)

(* Fitted on the seed-42 generated corpus (bench/corpus_rows.json, 360
   instances over five topology families) by bench/tune.ml's
   champion/challenger pass; bench/routing.json is the same table
   checked in as data, and test_corpus asserts the two stay equal (and
   that refitting from the checked-in rows reproduces it). The measured
   result: with the flow-pruned hybrid branch-and-bound, brute
   enumeration only wins below ~5 attributes — the hand-set 10-attr cut
   was paying up to 60 ms where the exact search takes well under 1 ms —
   and no rounding route survives the zero-quality-regression gate on
   undeadlined requests (rounding stays behind the tight-deadline
   guards, which ride along unrefitted: corpus rows carry no deadline
   to fit them against). *)
let fitted_routing =
  let g g_feat g_cmp g_val = { g_feat; g_cmp; g_val } in
  {
    r_name = "fitted(brute attrs<=4)";
    rules =
      [
        { guards = [ g "attrs" Le 4. ]; route = Brute };
        {
          guards =
            [ g "deadline_ms" Lt tight_deadline_ms; g "card_frac" Ge 1. ];
          route = Round_card;
        };
        {
          guards = [ g "deadline_ms" Lt tight_deadline_ms; g "lmax" Le 3. ];
          route = Round_set;
        };
        { guards = [ g "deadline_ms" Lt tight_deadline_ms ]; route = Greedy };
        { guards = []; route = Exact };
      ];
  }

let installed = ref fitted_routing
let routing () = !installed
let set_routing t = installed := t

let choose_explain (req : request) =
  route_explain !installed
    (features_of_instance req.inst)
    ~deadline_ms:req.deadline_ms

let choose req = fst (choose_explain req)

(* {2 Routing-table JSON} *)

module J = Svutil.Json

let routing_to_json t =
  J.Obj
    [
      ("name", J.Str t.r_name);
      ( "rules",
        J.Arr
          (List.map
             (fun r ->
               J.Obj
                 [
                   ( "if",
                     J.Arr
                       (List.map
                          (fun g ->
                            J.Obj
                              [
                                ("feat", J.Str g.g_feat);
                                ("cmp", J.Str (cmp_to_string g.g_cmp));
                                ("val", J.Num g.g_val);
                              ])
                          r.guards) );
                   ("route", J.Str (meth_to_string r.route));
                 ])
             t.rules) );
    ]

let routing_of_json j =
  let ( let* ) = Result.bind in
  let req what = function
    | Some v -> Ok v
    | None -> Error ("routing: missing or mistyped " ^ what)
  in
  let guard_of g =
    let* feat = req "guard feat" (J.str_member "feat" g) in
    let* () =
      if List.mem feat feature_names then Ok ()
      else Error ("routing: unknown feature " ^ feat)
    in
    let* cmp =
      req "guard cmp" (Option.bind (J.str_member "cmp" g) cmp_of_string)
    in
    let* v = req "guard val" (J.float_member "val" g) in
    let* () =
      if Float.is_nan v || v = infinity || v = neg_infinity then
        Error "routing: guard val must be finite"
      else Ok ()
    in
    Ok { g_feat = feat; g_cmp = cmp; g_val = v }
  in
  let rec guards_of = function
    | [] -> Ok []
    | g :: rest ->
        let* g = guard_of g in
        let* rest = guards_of rest in
        Ok (g :: rest)
  in
  let rule_of r =
    let* route =
      req "rule route"
        (Option.bind (J.str_member "route" r) meth_of_string)
    in
    let* () =
      if route = Auto then Error "routing: a rule cannot route to auto"
      else Ok ()
    in
    let* gs =
      match J.member "if" r with
      | Some (J.Arr gs) -> guards_of gs
      | _ -> Error "routing: rule needs an \"if\" array"
    in
    Ok { guards = gs; route }
  in
  let rec rules_of = function
    | [] -> Ok []
    | r :: rest ->
        let* r = rule_of r in
        let* rest = rules_of rest in
        Ok (r :: rest)
  in
  let* name = req "name" (J.str_member "name" j) in
  let* rules =
    match J.member "rules" j with
    | Some (J.Arr rs) -> rules_of rs
    | _ -> Error "routing: needs a \"rules\" array"
  in
  Ok { r_name = name; rules }

let run req =
  let m = match req.meth with Auto -> choose req | m -> m in
  let solve =
    match m with
    | Greedy -> solve_greedy
    | Round_card -> solve_round_card
    | Round_set -> solve_round_set
    | Exact | Auto (* unreachable: [choose] clamps [Auto] to [Exact] *) ->
        solve_exact
    | Brute -> solve_brute
  in
  (* The whole solve runs inside a "solve" span, so per-phase spans nest
     under "solve/..." and the same measurement yields the "total"
     timing entry. *)
  let r, total_ms =
    Svutil.Metrics.timed req.metrics "solve" (fun () ->
        solve { req with meth = m })
  in
  {
    r with
    method_used = m;
    timings = r.timings @ [ ("total", total_ms) ];
    (* Solved-state capture: the instance this result answers, plus its
       canonical form (lazily — most callers never pay for it).
       [Core.Delta] re-solves edits against this. *)
    state = Some { solved_inst = req.inst; canon = lazy (Canon.form req.inst) };
  }
