type outcome = { solution : Solution.t; proven_optimal : bool }

let all_cardinality (inst : Instance.t) =
  Array.for_all
    (fun (m : Instance.pmod) ->
      match m.Instance.ireq with Instance.Card _ -> true | Instance.Sets _ -> false)
    inst.Instance.pmods

type program = Hull | Figure_3

(* A cardinality module whose expansion into options would be wider
   than its Figure 3 block: sum C(|I|,alpha)·C(|O|,beta) option columns
   against L·(1+|I|+|O|) r/y/z columns, or a side too wide to expand. *)
let wider_than_figure_3 (m : Instance.pmod) =
  match m.Instance.ireq with
  | Instance.Sets _ -> false
  | Instance.Card card ->
      let n_in = Array.length m.Instance.ins and n_out = Array.length m.Instance.outs in
      n_in > Svutil.Subset.max_universe
      || n_out > Svutil.Subset.max_universe
      || List.fold_left
           (fun n (a, b) -> n + (Instance.binomial n_in a * Instance.binomial n_out b))
           0 card
         > List.length card * (1 + n_in + n_out)

let program inst =
  if all_cardinality inst && Array.exists wider_than_figure_3 inst.Instance.pmods then
    Figure_3
  else Hull

let build_ip inst =
  match program inst with
  | Figure_3 ->
      let { Card_lp.problem; attr_var } = Card_lp.build inst in
      (problem, attr_var)
  | Hull ->
      let { Set_lp.problem; attr_var } = Set_lp.build inst in
      (problem, attr_var)

let solve_with_stats ?(node_limit = Lp.Ilp.default_node_limit)
    ?(mode = Lp.Simplex.Hybrid_mode) ?deadline ?metrics inst =
  let registry = Option.value metrics ~default:Svutil.Metrics.nop in
  let problem, attr_var =
    Svutil.Metrics.span registry "lp/build" (fun () -> build_ip inst)
  in
  let solve_ilp =
    match mode with
    | Lp.Simplex.Exact_mode -> Lp.Ilp.Exact.solve_with_stats ~node_limit ?deadline ?metrics
    | Lp.Simplex.Hybrid_mode ->
        Lp.Ilp.Hybrid.solve_with_stats ~node_limit ?deadline ?metrics
  in
  let finish ~proven values =
    let half = Rat.of_ints 1 2 in
    let solution = Solution.of_mask inst (Array.map (fun v -> Rat.geq values.(v) half) attr_var) in
    assert (Solution.is_feasible inst solution);
    Some { solution; proven_optimal = proven }
  in
  let result, stats = solve_ilp problem in
  let outcome =
    match result with
    | Lp.Ilp.Optimal { values; _ } -> finish ~proven:true values
    | Lp.Ilp.Feasible { values; _ } -> finish ~proven:false values
    | Lp.Ilp.Infeasible -> None
    | Lp.Ilp.Unknown ->
        (* Stopped before any incumbent: the greedy solution, unproven. *)
        Option.map
          (fun solution -> { solution; proven_optimal = false })
          (Greedy.feasible_solution inst)
    | Lp.Ilp.Unbounded -> assert false (* all variables live in [0,1] *)
  in
  (outcome, stats)

let solve ?node_limit ?mode ?deadline ?metrics inst =
  fst (solve_with_stats ?node_limit ?mode ?deadline ?metrics inst)

type refusal = Too_many_attrs of { attrs : int; limit : int }

let brute_force_limit = 25

let refusal_to_string (Too_many_attrs { attrs; limit }) =
  Printf.sprintf "brute force refused: %d attributes exceeds the %d-attribute limit"
    attrs limit

(* Subsets in counter order: bit [i] of [bits] hides attribute id [i],
   and one reused [mask] follows the counter (carrying through trailing
   hidden attributes), so a subset costs a feasibility check, plus its
   cost when it is feasible. Feasibility needs no privatization: a
   solution privatizes exactly the publics its mask exposes. The first
   cheapest feasible subset wins, and only it becomes a [Solution.t].
   The deadline is polled once every 256 subsets, the first before any
   is enumerated. *)
let brute_force_checked ?(deadline = Svutil.Deadline.none) inst =
  let attrs = Instance.n_attrs inst in
  if attrs > brute_force_limit then
    Error (Too_many_attrs { attrs; limit = brute_force_limit })
  else begin
    let mask = Array.make attrs false in
    let best = ref (-1) and best_cost = ref Rat.zero in
    let winner () =
      if !best < 0 then None
      else Some (Solution.of_mask inst (Array.init attrs (fun i -> (!best lsr i) land 1 = 1)))
    in
    match
      for bits = 0 to (1 lsl attrs) - 1 do
        if bits land 255 = 0 then Svutil.Deadline.check deadline;
        if bits > 0 then begin
          let i = ref 0 in
          while mask.(!i) do
            mask.(!i) <- false;
            incr i
          done;
          mask.(!i) <- true
        end;
        if Instance.all_satisfied inst mask then begin
          let c = Instance.mask_cost inst mask in
          if !best < 0 || Rat.lt c !best_cost then begin
            best := bits;
            best_cost := c
          end
        end
      done
    with
    | () -> Ok (Option.map (fun solution -> { solution; proven_optimal = true }) (winner ()))
    | exception Svutil.Deadline.Expired ->
        let cut =
          match winner () with Some _ as b -> b | None -> Greedy.feasible_solution inst
        in
        Ok (Option.map (fun solution -> { solution; proven_optimal = false }) cut)
  end

let brute_force inst =
  match brute_force_checked inst with
  | Ok best -> Option.map (fun o -> o.solution) best
  | Error r -> invalid_arg (refusal_to_string r)

let lower_bound ?(mode = Lp.Simplex.Hybrid_mode) ?deadline ?metrics inst =
  let result =
    match program inst with
    | Figure_3 -> Card_lp.lp_relaxation ~mode ?deadline ?metrics inst
    | Hull -> Set_lp.lp_relaxation ~mode ?deadline ?metrics inst
  in
  match result with `Optimal (_, obj) -> Some obj | `Infeasible -> None
