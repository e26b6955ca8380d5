module Rng = Svutil.Rng

(* Ties keep the module's declaration order: the sort is stable. *)
let cheapest_subset (inst : Instance.t) pool k =
  if k > Array.length pool then
    invalid_arg "Rounding: requirement exceeds attribute count";
  let sorted = Array.copy pool in
  Array.stable_sort (fun a b -> Rat.compare inst.Instance.costs.(a) inst.Instance.costs.(b)) sorted;
  Array.to_list (Array.sub sorted 0 k)

let option_cost (inst : Instance.t) ids =
  List.fold_left (fun c i -> Rat.add c inst.Instance.costs.(i)) Rat.zero ids

let cheapest_option inst (m : Instance.pmod) =
  let candidates =
    match m.Instance.ireq with
    | Instance.Card l ->
        List.map
          (fun (alpha, beta) ->
            cheapest_subset inst m.Instance.ins alpha @ cheapest_subset inst m.Instance.outs beta)
          l
    | Instance.Sets a -> Array.fold_right (fun (i, o) acc -> (Array.to_list i @ Array.to_list o) :: acc) a []
  in
  match candidates with
  | [] ->
      invalid_arg
        (Printf.sprintf "Rounding: module %s has an empty requirement list" m.Instance.mname)
  | first :: rest ->
      List.fold_left
        (fun best c ->
          if Rat.lt (option_cost inst c) (option_cost inst best) then c else best)
        first rest

let algorithm1 ?(metrics = Svutil.Metrics.nop) rng inst ~x =
  Svutil.Metrics.tick metrics "rounding.trials";
  let n = max 2 (Instance.n_modules inst) in
  let log_n = Float.log (float_of_int n) in
  (* Step 2: independent rounding at probability min(1, 16 x_b log n). *)
  let hidden =
    Array.init (Instance.n_attrs inst) (fun b ->
        let p = Float.min 1.0 (16.0 *. Rat.to_float (x b) *. log_n) in
        Rng.float rng < p)
  in
  (* Step 3: repair every unsatisfied module with its cheapest option. *)
  Array.iter
    (fun m ->
      if not (Instance.satisfied m hidden) then begin
        Svutil.Metrics.tick metrics "rounding.repairs";
        List.iter (fun i -> hidden.(i) <- true) (cheapest_option inst m)
      end)
    inst.Instance.pmods;
  Solution.of_mask inst hidden

let threshold inst ~x =
  (* The LP is built on the set-expanded requirement lists, so the
     rounding threshold must use that l_max, not the (shorter)
     cardinality lists'. *)
  let lmax = max 1 (Instance.lmax (Instance.to_sets inst)) in
  let cutoff = Rat.of_ints 1 lmax in
  let s = Solution.of_mask inst (Array.init (Instance.n_attrs inst) (fun b -> Rat.geq (x b) cutoff)) in
  assert (Solution.is_feasible inst s);
  s

let best_of ?(deadline = Svutil.Deadline.none) n trial =
  let rec go best i =
    if i >= n || Svutil.Deadline.expired deadline then (best, i)
    else
      let s = trial i in
      go (if Solution.compare_cost s best < 0 then s else best) (i + 1)
  in
  if n < 1 then invalid_arg "Rounding.best_of: need at least one trial";
  go (trial 0) 1
