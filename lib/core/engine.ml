module D = Svutil.Deadline

type meth = Auto | Greedy | Round_card | Round_set | Exact | Brute

let meth_to_string = function
  | Auto -> "auto"
  | Greedy -> "greedy"
  | Round_card -> "round-card"
  | Round_set -> "round-set"
  | Exact -> "exact"
  | Brute -> "brute"

type request = {
  inst : Instance.t;
  meth : meth;
  deadline_ms : float option;
  node_limit : int;
  seed : int;
  trials : int;
  metrics : Svutil.Metrics.t;
}

let default_request inst =
  {
    inst;
    meth = Auto;
    deadline_ms = None;
    node_limit = Lp.Ilp.default_node_limit;
    seed = 0;
    trials = 4;
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

let ratio ~proven_optimal solution lower_bound =
  match (solution, lower_bound) with
  | Some _, _ when proven_optimal -> Some 1.0
  | Some (s : Solution.t), Some lb when Rat.gt lb Rat.zero ->
      Some (Rat.to_float (Rat.div s.Solution.cost lb))
  | Some (s : Solution.t), Some _ when Rat.is_zero s.Solution.cost -> Some 1.0
  | _ -> None

let make_result ~metrics ~phases ~method_used ?(stats = []) ?solution
    ?lower_bound ?(proven_optimal = false) () =
  {
    solution;
    lower_bound;
    proven_optimal;
    ratio = ratio ~proven_optimal solution lower_bound;
    timings = List.rev !phases;
    stats;
    method_used;
    metrics;
    state = None;
  }

(* When an LP-rounding method's relaxation blows its budget, fall back
   to the greedy solution rather than returning nothing: the engine
   contract is that a deadline hit degrades quality, not availability. *)
let greedy_fallback ~phases ~method_used ~stats (req : request) =
  let solution =
    phase req.metrics phases "greedy-fallback" (fun () ->
        Greedy.feasible_solution req.inst)
  in
  make_result ~metrics:req.metrics ~phases ~method_used
    ~stats:(("deadline_hit", "true") :: stats)
    ?solution ()

let solve_greedy (req : request) =
  let phases = ref [] in
  let solution =
    phase req.metrics phases "greedy" (fun () -> Greedy.feasible_solution req.inst)
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
        (* Each trial splits its stream from [base] as it starts: the
           streams are those of splitting every trial up front, and a
           deadline that stops the trials leaves none allocated. *)
        let solution, ran =
          phase req.metrics phases "round" (fun () ->
              let base = Svutil.Rng.create req.seed in
              Rounding.best_of ~deadline trials (fun _ ->
                  Rounding.algorithm1 ~metrics:req.metrics (Svutil.Rng.split base)
                    req.inst ~x))
        in
        let stats =
          ("trials", string_of_int trials)
          :: (if ran < trials then [ ("deadline_hit", "true") ] else [])
        in
        make_result ~metrics:req.metrics ~phases ~method_used:Round_card ~stats
          ~solution ~lower_bound:bound ()

(* The set-form instance is built once: the LP, the threshold's l_max
   and the [lmax] stat all read it. *)
let solve_round_set (req : request) =
  let phases = ref [] in
  let deadline = D.of_ms_opt req.deadline_ms in
  let sets = Instance.to_sets req.inst in
  match
    phase req.metrics phases "lp" (fun () ->
        Set_lp.lp_relaxation ~deadline ~metrics:req.metrics sets)
  with
  | exception D.Expired ->
      greedy_fallback ~phases ~method_used:Round_set ~stats:[] req
  | `Infeasible ->
      make_result ~metrics:req.metrics ~phases ~method_used:Round_set
        ~stats:[ ("infeasible", "true") ]
        ()
  | `Optimal (x, bound) ->
      let solution =
        phase req.metrics phases "round" (fun () -> Rounding.threshold sets ~x)
      in
      make_result ~metrics:req.metrics ~phases ~method_used:Round_set
        ~stats:[ ("lmax", string_of_int (Instance.lmax sets)) ]
        ~solution ~lower_bound:bound ()

let solve_exact (req : request) =
  let phases = ref [] in
  let deadline = D.of_ms_opt req.deadline_ms in
  let outcome, (st : Lp.Ilp.stats) =
    phase req.metrics phases "search" (fun () ->
        Exact.solve_with_stats ~node_limit:req.node_limit ~deadline
          ~metrics:req.metrics req.inst)
  in
  let stats =
    [
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
  let deadline = D.of_ms_opt req.deadline_ms in
  match
    phase req.metrics phases "enumerate" (fun () ->
        Exact.brute_force_checked ~deadline req.inst)
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
  | Ok (Some { Exact.solution = s; proven_optimal = true }) ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute ~solution:s
        ~lower_bound:s.Solution.cost ~proven_optimal:true ()
  | Ok (Some { Exact.solution = s; proven_optimal = false }) ->
      make_result ~metrics:req.metrics ~phases ~method_used:Brute
        ~stats:[ ("deadline_hit", "true") ]
        ~solution:s ()

let methods = [ Greedy; Round_card; Round_set; Exact; Brute ]

(* {2 Auto routing}

   [Auto] picks a method from three facts the request shows: the
   attribute count, the deadline and the constraint form. Brute
   enumeration only beats the exact search below five attributes.
   Under a deadline below 25 ms a branch-and-bound run
   cannot finish its root LP reliably, so the budget goes to the LP
   rounding that matches the constraint form (Theorem 5's Algorithm 1
   on cardinality constraints, Theorem 6's threshold rounding on set
   constraints up to [l_max = 3]) or to greedy (Theorem 7). Every other
   request gets the exact IP. The reasons are constants, so [choose]
   formats nothing. *)
let choose_explain (req : request) =
  if Instance.n_attrs req.inst <= 4 then
    (Brute, "at most 4 attributes")
  else
    match req.deadline_ms with
    | Some ms when ms < 25. ->
        if Exact.all_cardinality req.inst then
          (Round_card, "deadline under 25 ms, cardinality constraints")
        else if Instance.lmax req.inst <= 3 then
          (Round_set, "deadline under 25 ms, set constraints, l_max <= 3")
        else (Greedy, "deadline under 25 ms, set constraints, l_max > 3")
    | _ -> (Exact, "more than 4 attributes, no deadline under 25 ms")

let choose req = fst (choose_explain req)

let run req =
  let m = match req.meth with Auto -> choose req | m -> m in
  let solve =
    match m with
    | Greedy -> solve_greedy
    | Round_card -> solve_round_card
    | Round_set -> solve_round_set
    | Exact | Auto (* unreachable: [choose] never returns [Auto] *) ->
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
