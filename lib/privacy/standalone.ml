module M = Wf.Wmodule
module R = Rel.Relation
module S = Rel.Schema
module T = Rel.Tuple
module A = Rel.Attr
module P = Rel.Plan
module Hset = Svutil.Hset
module Listx = Svutil.Listx

let mul_sat = Worlds_naive.mul_sat

(* Saturating, like [max_achievable_gamma]: huge domains must not wrap
   a product around below Gamma. *)
let hidden_output_multiplier m ~visible =
  List.fold_left
    (fun acc a ->
      if List.mem (A.name a) visible then acc
      else mul_sat acc (A.dom a))
    1 m.M.outputs

let visible_plans m ~visible =
  let vis_in = Listx.inter (M.input_names m) visible in
  let vis_out = Listx.inter (M.output_names m) visible in
  let schema = R.schema m.M.table in
  (vis_in, P.restrict schema vis_in, P.restrict schema vis_out)

(* Distinct visible-output projections among rows of R that agree with
   [input] on the visible inputs. One compiled-plan pass over the
   table; a row with no visible outputs projects to the empty tuple, so
   the distinct count is 1 exactly as required. *)
let distinct_visible_outputs m ~visible ~input =
  let vis_in, in_plan, out_plan = visible_plans m ~visible in
  let x_vis = T.project (M.input_schema m) vis_in input in
  let seen = Hset.create 8 in
  R.iter m.M.table ~f:(fun row ->
      if T.equal (P.apply in_plan row) x_vis then
        Hset.add seen (P.apply out_plan row));
  if Hset.cardinal seen = 0 then invalid_arg "Standalone: input not in pi_I(R)";
  Hset.cardinal seen

let out_size m ~visible ~input =
  mul_sat
    (distinct_visible_outputs m ~visible ~input)
    (hidden_output_multiplier m ~visible)

(* Group the whole table by visible-input projection in a single pass
   instead of rescanning it per defined input: two inputs agreeing on
   the visible attributes share a group, so the minimum over groups is
   the minimum over defined inputs. *)
let min_out_size m ~visible =
  let _, in_plan, out_plan = visible_plans m ~visible in
  let groups = Hashtbl.create 32 in
  R.iter m.M.table ~f:(fun row ->
      let k = P.apply in_plan row in
      let set =
        match Hashtbl.find_opt groups k with
        | Some s -> s
        | None ->
            let s = Hset.create 4 in
            Hashtbl.replace groups k s;
            s
      in
      Hset.add set (P.apply out_plan row));
  if Hashtbl.length groups = 0 then max_int
  else
    let mult = hidden_output_multiplier m ~visible in
    Hashtbl.fold
      (fun _ set acc -> min acc (mul_sat (Hset.cardinal set) mult))
      groups max_int

(* Hiding every attribute gives d(x) = 1 and the full hidden-output
   multiplier, so by the monotonicity of Proposition 1 no view can do
   better than the product of the output domains. Saturating, so huge
   domains cannot wrap around the comparison. *)
let max_achievable_gamma m =
  List.fold_left (fun acc a -> mul_sat acc (A.dom a)) 1 m.M.outputs

let is_safe m ~visible ~gamma = min_out_size m ~visible >= gamma

let is_hidden_safe m ~hidden ~gamma =
  is_safe m ~visible:(Listx.diff (M.attr_names m) hidden) ~gamma

let safe_visible_subsets m ~gamma =
  List.filter (fun visible -> is_safe m ~visible ~gamma) (Svutil.Subset.all (M.attr_names m))

(* ------------------------------------------------------------------ *)
(* The safety table: every hidden subset at once                       *)
(* ------------------------------------------------------------------ *)

type table = { arity : int; bits : Bytes.t }

let hidden_mask_safe t h =
  h >= 0
  && h lsr t.arity = 0
  && Char.code (Bytes.get t.bits (h lsr 3)) land (1 lsl (h land 7)) <> 0

(* Depth-first over visible sets V, each reached from V minus its
   highest column, so inputs (columns 0..n_in-1) join V before any
   output. Level d of [part] holds the partition of the rows by their
   values on the d columns of the current V, as dense class ids; the
   partition by V's inputs alone is then the level where the last input
   joined. Refining a level by one more column walks that column's rows
   in class order and numbers each (class, column class) pair the first
   time it shows up, so no tuple is ever built or hashed.

   V is safe iff every group of rows agreeing on V's inputs holds at
   least [need] classes of V, where [need] is Gamma over the product of
   the hidden outputs' domains, rounded up (Lemma 2). Proposition 1: a superset of
   an unsafe V is unsafe, so the search does not descend below one, and
   the bits it never sets read as unsafe. Live memory is 3k+5 arrays
   of |R| ints plus the 2^k bits. *)
let safety_table m ~gamma =
  let names = M.attr_names m in
  Svutil.Subset.check_universe names;
  let k = List.length names and n_in = List.length m.M.inputs in
  let full = (1 lsl k) - 1 in
  let bits = Bytes.make ((full lsr 3) + 1) '\000' in
  let set_safe h =
    let i = h lsr 3 in
    Bytes.set bits i
      (Char.unsafe_chr (Char.code (Bytes.get bits i) lor (1 lsl (h land 7))))
  in
  let rows = Array.of_list (R.rows m.M.table) in
  let n = Array.length rows in
  (* No defined input: every view is vacuously safe (min_out_size is
     max_int). *)
  if n = 0 then Bytes.fill bits 0 (Bytes.length bits) '\255'
  else begin
    let dom = Array.of_list (List.map A.dom (m.M.inputs @ m.M.outputs)) in
    (* Per column: the dense class id of each row's value, and the rows
       in class order. *)
    let cls = Array.make_matrix k n 0 and n_cls = Array.make k 0 in
    let by_class =
      Array.init k (fun j ->
          let order = Array.init n Fun.id in
          Array.stable_sort (fun r r' -> compare rows.(r).(j) rows.(r').(j)) order;
          Array.iteri
            (fun p r ->
              if p > 0 && rows.(r).(j) <> rows.(order.(p - 1)).(j) then
                n_cls.(j) <- n_cls.(j) + 1;
              cls.(j).(r) <- n_cls.(j))
            order;
          n_cls.(j) <- n_cls.(j) + 1;
          order)
    in
    let part = Array.make_matrix (k + 1) n 0 in
    let n_part = Array.make (k + 1) 1 in
    (* Scratch: [tag]/[fresh] number the refined classes, [mark]/[count]
       count V's classes per input group. Stamps only grow, so nothing
       is ever cleared. *)
    let tag = Array.make n (-1) and fresh = Array.make n 0 in
    let mark = Array.make n (-1) and count = Array.make n 0 in
    let stamp = ref 0 in
    let refine d j =
      let src = part.(d) and dst = part.(d + 1) in
      let cl = cls.(j) and order = by_class.(j) in
      let base = !stamp and next = ref 0 in
      stamp := base + n_cls.(j);
      for p = 0 to n - 1 do
        let r = order.(p) in
        let g = src.(r) and key = base + cl.(r) in
        if tag.(g) <> key then begin
          tag.(g) <- key;
          fresh.(g) <- !next;
          incr next
        end;
        dst.(r) <- fresh.(g)
      done;
      n_part.(d + 1) <- !next
    in
    let every_group_has need d di =
      let groups = part.(di) and classes = part.(d) in
      incr stamp;
      Array.fill count 0 n_part.(di) 0;
      for r = 0 to n - 1 do
        let c = classes.(r) in
        if mark.(c) <> !stamp then begin
          mark.(c) <- !stamp;
          count.(groups.(r)) <- count.(groups.(r)) + 1
        end
      done;
      let ok = ref true in
      for g = 0 to n_part.(di) - 1 do
        if count.(g) < need then ok := false
      done;
      !ok
    in
    (* [after.(j)]: product of the domains of the outputs from column j
       on, all hidden while V's last column is below j. *)
    let after = Array.make (k + 1) 1 in
    for j = k - 1 downto 0 do
      after.(j) <- (if j < n_in then after.(j + 1) else mul_sat after.(j + 1) dom.(j))
    done;
    (* [skipped]: product of the domains of the hidden outputs below
       [last], so the hidden outputs multiply to [skipped * after.(last+1)]. *)
    let rec visit v d di last skipped =
      let mult = mul_sat skipped after.(last + 1) in
      let need = if mult >= gamma then 1 else (gamma + mult - 1) / mult in
      (* With fewer V classes than [need] per input group on average,
         some group is short. *)
      if need <= 1 || (n_part.(d) / n_part.(di) >= need && every_group_has need d di)
      then begin
        set_safe (full lxor v);
        let skipped = ref skipped in
        for j = last + 1 to k - 1 do
          refine d j;
          visit (v lor (1 lsl j)) (d + 1) (if j < n_in then d + 1 else di) j !skipped;
          if j >= n_in then skipped := mul_sat !skipped dom.(j)
        done
      end
    in
    visit 0 0 0 (-1) 1
  end;
  { arity = k; bits }

(* [Svutil.Subset.by_increasing_size] order on masks: by size, then
   lexicographically by position, so the lowest differing bit decides. *)
let compare_by_size a b =
  match compare (Svutil.Subset.popcount a) (Svutil.Subset.popcount b) with
  | 0 when a = b -> 0
  | 0 ->
      let d = a lxor b in
      if a land d land -d <> 0 then -1 else 1
  | c -> c

(* Minimal iff safe with every one-smaller subset unsafe: by
   Proposition 1 that rules out every safe proper subset. *)
let minimal_hidden_masks t =
  let minimal = ref [] in
  for h = (1 lsl t.arity) - 1 downto 0 do
    if hidden_mask_safe t h then begin
      let rest = ref h and covered = ref false in
      while !rest <> 0 && not !covered do
        let bit = !rest land - !rest in
        covered := hidden_mask_safe t (h lxor bit);
        rest := !rest lxor bit
      done;
      if not !covered then minimal := h :: !minimal
    end
  done;
  List.stable_sort compare_by_size !minimal

let minimal_hidden_subsets m ~gamma =
  List.map
    (Svutil.Subset.of_mask (M.attr_names m))
    (minimal_hidden_masks (safety_table m ~gamma))

let min_cost_search m ~gamma ~cost ~prune ~count =
  let best = ref None in
  let found_safe = ref [] in
  List.iter
    (fun hidden ->
      let skip = prune && List.exists (fun h -> Listx.is_subset h hidden) !found_safe in
      if not skip then begin
        incr count;
        if is_hidden_safe m ~hidden ~gamma then begin
          if prune then found_safe := hidden :: !found_safe;
          let c = Rat.sum (List.map cost hidden) in
          match !best with
          | Some (_, c') when Rat.leq c' c -> ()
          | _ -> best := Some (hidden, c)
        end
      end)
    (Svutil.Subset.by_increasing_size (M.attr_names m));
  !best

let min_cost_hidden ?(prune = true) m ~gamma ~cost =
  min_cost_search m ~gamma ~cost ~prune ~count:(ref 0)

let safe_check_calls m ~gamma ~prune =
  let count = ref 0 in
  ignore (min_cost_search m ~gamma ~cost:(fun _ -> Rat.one) ~prune ~count);
  !count

(* ------------------------------------------------------------------ *)
(* Section 6 extensions                                                *)
(* ------------------------------------------------------------------ *)

let min_cost_hidden_general ?(monotone = false) m ~gamma ~cost =
  let best = ref None in
  let found_safe = ref [] in
  List.iter
    (fun hidden ->
      let skip =
        monotone && List.exists (fun h -> Listx.is_subset h hidden) !found_safe
      in
      if not skip then
        if is_hidden_safe m ~hidden ~gamma then begin
          if monotone then found_safe := hidden :: !found_safe;
          let c = cost hidden in
          match !best with
          | Some (_, c') when Rat.leq c' c -> ()
          | _ -> best := Some (hidden, c)
        end)
    (Svutil.Subset.by_increasing_size (M.attr_names m));
  !best

let max_gamma_under_budget m ~cost ~budget =
  let best_gamma = ref 0 and best_hidden = ref [] in
  List.iter
    (fun hidden ->
      let c = Rat.sum (List.map cost hidden) in
      if Rat.leq c budget then begin
        let visible = Listx.diff (M.attr_names m) hidden in
        let level = min_out_size m ~visible in
        if level > !best_gamma then begin
          best_gamma := level;
          best_hidden := hidden
        end
      end)
    (Svutil.Subset.all (M.attr_names m));
  (!best_gamma, !best_hidden)

let estimate_min_out_size rng m ~visible ~samples =
  let inputs = M.defined_inputs m in
  let picked = Svutil.Rng.sample rng samples inputs in
  let mult = hidden_output_multiplier m ~visible in
  List.fold_left
    (fun acc x -> min acc (distinct_visible_outputs m ~visible ~input:x * mult))
    max_int picked

let check_sampled rng m ~visible ~gamma ~samples =
  if estimate_min_out_size rng m ~visible ~samples >= gamma then `Safe_on_sample
  else `Unsafe
