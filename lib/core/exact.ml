type outcome = { solution : Solution.t; proven_optimal : bool }

let all_cardinality inst =
  List.for_all
    (fun (m : Instance.module_req) ->
      match m.Instance.req with Requirement.Card _ -> true | Requirement.Sets _ -> false)
    inst.Instance.mods

let build_ip inst =
  if all_cardinality inst then
    let { Card_lp.problem; attr_var; point_of; _ } = Card_lp.build inst in
    (problem, attr_var, point_of)
  else
    let { Set_lp.problem; attr_var; point_of; _ } = Set_lp.build inst in
    (problem, attr_var, point_of)

(* Cheapest feasible solution we can get without branching: the greedy
   heuristic. Its cost seeds the branch-and-bound as a strict cutoff, so
   the search only explores nodes that can beat it. (LP-rounding seeds
   live inside the solver: [Lp.Ilp] rounds its own root relaxation, so
   solving a second LP here would duplicate work on every call.) *)
let seed_solution inst =
  match Greedy.solve inst with
  | s when Solution.is_feasible inst s -> Some s
  | _ | (exception _) -> None

let solve_with_stats ?(node_limit = Lp.Ilp.default_node_limit)
    ?(mode = Lp.Simplex.Hybrid_mode) ?(jobs = 1) ?deadline ?metrics ?seed
    ?(attr_fixings = []) inst =
  let problem, attr_var, point_of =
    Svutil.Metrics.span
      (Option.value metrics ~default:Svutil.Metrics.nop)
      "lp/build"
      (fun () -> build_ip inst)
  in
  (* Attribute-level pins (Core.Flow verdicts) become x-variable pins;
     both IP forms name the hiding variables in [attr_var]. The fixings
     preserve the optimal value, so the strict greedy cutoff below
     stays sound: an Infeasible answer still means "nothing beats the
     seed". *)
  let fixings =
    List.filter_map
      (fun (a, v) -> Option.map (fun i -> (i, v)) (List.assoc_opt a attr_var))
      attr_fixings
  in
  (* The cutoff seed: the cheaper of the greedy solution and the
     caller's warm seed (a parent solution in the Core.Delta re-solve
     path). An infeasible warm seed is dropped rather than trusted. *)
  let warm =
    match seed with
    | Some s when Solution.is_feasible inst s -> Some s
    | _ -> None
  in
  let seed =
    match (seed_solution inst, warm) with
    | Some g, Some w -> Some (if Solution.compare_cost g w <= 0 then g else w)
    | (Some _ as g), None -> g
    | None, w -> w
  in
  let cutoff = Option.map (fun (s : Solution.t) -> s.Solution.cost) seed in
  (* Only the caller's warm seed also enters as a full-space incumbent
     (when a witnessing point exists): if it survives presolve
     projection the search returns it (or something strictly better) as
     a value-carrying result instead of relying on the
     Infeasible-under-cutoff reading. The greedy seed stays cutoff-only
     — building and constraint-checking its point would tax every plain
     solve for a reading the Infeasible branch already provides. *)
  let incumbent = Option.bind warm point_of in
  let solve_ilp =
    match mode with
    | Lp.Simplex.Exact_mode ->
        Lp.Ilp.Exact.solve_with_stats ~node_limit ?cutoff ?incumbent ~jobs
          ?deadline ?metrics ~fixings
    | Lp.Simplex.Hybrid_mode ->
        Lp.Ilp.Hybrid.solve_with_stats ~node_limit ?cutoff ?incumbent ~jobs
          ?deadline ?metrics ~fixings
  in
  let finish ~proven values =
    let hidden =
      List.filter_map
        (fun (a, v) -> if Rat.geq values.(v) (Rat.of_ints 1 2) then Some a else None)
        attr_var
    in
    let solution = Solution.of_hidden inst hidden in
    assert (Solution.is_feasible inst solution);
    Some { solution; proven_optimal = proven }
  in
  let result, stats = solve_ilp problem in
  let outcome =
    match result with
    | Lp.Ilp.Optimal { values; _ } -> finish ~proven:true values
    | Lp.Ilp.Feasible { values; _ } -> finish ~proven:false values
    | Lp.Ilp.Infeasible ->
        (* Under a cutoff this means "nothing strictly cheaper than the
           seed exists", which proves the seed optimal. Without one it is
           a genuine infeasibility. *)
        Option.map (fun solution -> { solution; proven_optimal = true }) seed
    | Lp.Ilp.Unknown ->
        Option.map (fun solution -> { solution; proven_optimal = false }) seed
    | Lp.Ilp.Unbounded -> assert false (* all variables live in [0,1] *)
  in
  (outcome, stats)

let solve ?node_limit ?mode ?jobs ?deadline ?metrics ?seed ?attr_fixings inst =
  fst
    (solve_with_stats ?node_limit ?mode ?jobs ?deadline ?metrics ?seed
       ?attr_fixings inst)

type refusal = Too_many_attrs of { attrs : int; limit : int }

let brute_force_limit = 25

let refusal_to_string (Too_many_attrs { attrs; limit }) =
  Printf.sprintf "brute force refused: %d attributes exceeds the %d-attribute limit"
    attrs limit

let brute_force_checked inst =
  let attrs = List.length (Instance.attrs inst) in
  if attrs > brute_force_limit then
    Error (Too_many_attrs { attrs; limit = brute_force_limit })
  else begin
    let best = ref None in
    Svutil.Subset.iter (Instance.attrs inst) (fun hidden ->
        let s = Solution.of_hidden inst hidden in
        if Solution.is_feasible inst s then
          match !best with
          | Some b when Solution.compare_cost b s <= 0 -> ()
          | _ -> best := Some s);
    Ok !best
  end

let brute_force inst =
  match brute_force_checked inst with
  | Ok best -> best
  | Error r -> invalid_arg (refusal_to_string r)

let lower_bound ?(mode = Lp.Simplex.Hybrid_mode) ?deadline ?metrics inst =
  let result =
    if all_cardinality inst then Card_lp.lp_relaxation ~mode ?deadline ?metrics inst
    else Set_lp.lp_relaxation ~mode ?deadline ?metrics inst
  in
  match result with `Optimal (_, obj) -> Some obj | `Infeasible -> None
