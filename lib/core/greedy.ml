let solve (inst : Instance.t) =
  Solution.of_ids inst
    (List.concat_map (Rounding.cheapest_option inst) (Array.to_list inst.Instance.pmods))
