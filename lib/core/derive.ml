module M = Wf.Wmodule
module St = Privacy.Standalone
module Subset = Svutil.Subset

(* Each minimal hidden mask split at the input/output boundary: the
   input half sorted by name, the output half in declaration order. *)
let sets_of_masks m masks =
  let n_in = List.length m.M.inputs in
  List.map
    (fun mask ->
      ( List.sort compare (Subset.of_mask (M.input_names m) mask),
        Subset.of_mask (M.output_names m) (mask lsr n_in) ))
    masks

(* Safe and total hidden-subset counts per profile (|H n I|, |H n O|). *)
let profiles m table =
  let n_in = List.length m.M.inputs and n_out = List.length m.M.outputs in
  let safe = Array.make_matrix (n_in + 1) (n_out + 1) 0 in
  let total = Array.make_matrix (n_in + 1) (n_out + 1) 0 in
  for h = 0 to (1 lsl (n_in + n_out)) - 1 do
    let a = Subset.popcount (h land ((1 lsl n_in) - 1))
    and b = Subset.popcount (h lsr n_in) in
    total.(a).(b) <- total.(a).(b) + 1;
    if St.hidden_mask_safe table h then safe.(a).(b) <- safe.(a).(b) + 1
  done;
  (safe, total)

(* Safety is upward closed (Proposition 1), so the uniformly safe
   profiles are too: the minimal ones are those with neither (a-1, b)
   nor (a, b-1) uniformly safe. Read by increasing a, they come out in
   [Requirement.normalize_card] order. *)
let uniformly_safe (safe, total) =
  let uniform a b = a >= 0 && b >= 0 && safe.(a).(b) = total.(a).(b) in
  let l = ref [] in
  for a = Array.length safe - 1 downto 0 do
    for b = Array.length safe.(a) - 1 downto 0 do
      if uniform a b && not (uniform (a - 1) b || uniform a (b - 1)) then
        l := (a, b) :: !l
    done
  done;
  !l

(* A hidden set satisfies the cardinality list iff its profile is
   uniformly safe, so the list is exact iff no profile mixes safe and
   unsafe subsets. *)
let exact_of_profiles ((safe, total) as p) =
  let mixed = ref false in
  Array.iteri
    (fun a row ->
      Array.iteri (fun b s -> if s > 0 && s < total.(a).(b) then mixed := true) row)
    safe;
  if !mixed then None else Some (uniformly_safe p)

let sets_requirement m ~gamma =
  sets_of_masks m (St.minimal_hidden_masks (St.safety_table m ~gamma))

let sound_cardinality m ~gamma =
  uniformly_safe (profiles m (St.safety_table m ~gamma))

let exact_cardinality m ~gamma =
  exact_of_profiles (profiles m (St.safety_table m ~gamma))

type derived = Card_form of Requirement.cardinality | Set_masks of int list

let derive m ~gamma =
  let table = St.safety_table m ~gamma in
  match exact_of_profiles (profiles m table) with
  | Some card when card <> [] -> Card_form card
  | _ -> Set_masks (St.minimal_hidden_masks table)

let requirement m ~gamma =
  match derive m ~gamma with
  | Card_form card -> Requirement.Card card
  | Set_masks masks -> Requirement.Sets (sets_of_masks m masks)
