let solve (inst : Instance.t) =
  Solution.of_ids inst
    (List.concat_map (Rounding.cheapest_option inst) (Array.to_list inst.Instance.pmods))

let feasible_solution inst =
  match solve inst with
  | s when Solution.is_feasible inst s -> Some s
  | _ | (exception Invalid_argument _) -> None
