module M = Wf.Wmodule
module A = Rel.Attr
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

(* The key's ints: Γ, |I|, |O|, the domains in [inputs @ outputs]
   order, the row count, then every row's values. Each is folded to a
   non-negative int (zigzag: 0, -1, 1, -2, ... to 0, 1, 2, 3, ...) and
   written as a base-128 varint, low group first, with the high bit
   marking a continuation. Varints are prefix-free and the counts say
   how many ints follow, so a key decodes to one argument list. One
   pass sizes the key and a second writes it, in loops that allocate
   nothing but the key: the daemon builds one for every private module
   of every request. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

(* Read as unsigned, so a folded [min_int] takes nine groups. *)
let rec varint_bytes z = if z lsr 7 = 0 then 1 else 1 + varint_bytes (z lsr 7)

let int_bytes n = varint_bytes (zigzag n)

let rec put_varint b i z =
  if z lsr 7 = 0 then begin
    Bytes.unsafe_set b i (Char.unsafe_chr z);
    i + 1
  end
  else begin
    Bytes.unsafe_set b i (Char.unsafe_chr (z land 127 lor 128));
    put_varint b (i + 1) (z lsr 7)
  end

let put_int b i n = put_varint b i (zigzag n)

let rec doms_bytes acc = function
  | [] -> acc
  | a :: l -> doms_bytes (acc + int_bytes (A.dom a)) l

let rec rows_bytes acc = function
  | [] -> acc
  | (r : int array) :: l ->
      let acc = ref acc in
      for i = 0 to Array.length r - 1 do
        acc := !acc + int_bytes (Array.unsafe_get r i)
      done;
      rows_bytes !acc l

let rec put_doms b at = function
  | [] -> at
  | a :: l -> put_doms b (put_int b at (A.dom a)) l

let rec put_rows b at = function
  | [] -> at
  | (r : int array) :: l ->
      let at = ref at in
      for i = 0 to Array.length r - 1 do
        at := put_int b !at (Array.unsafe_get r i)
      done;
      put_rows b !at l

let key m ~gamma ~max_bytes =
  let ins = m.M.inputs and outs = m.M.outputs and rows = Rel.Relation.rows m.M.table in
  let n_in = List.length ins and n_out = List.length outs and n_rows = List.length rows in
  let len =
    rows_bytes
      (doms_bytes
         (doms_bytes (int_bytes gamma + int_bytes n_in + int_bytes n_out + int_bytes n_rows) ins)
         outs)
      rows
  in
  if len > max_bytes then None
  else begin
    let b = Bytes.create len in
    let at = put_int b (put_int b (put_int b 0 gamma) n_in) n_out in
    let at = put_int b (put_doms b (put_doms b at ins) outs) n_rows in
    ignore (put_rows b at rows : int);
    Some (Bytes.unsafe_to_string b)
  end

let requirement m ~gamma =
  match derive m ~gamma with
  | Card_form card -> Requirement.Card card
  | Set_masks masks -> Requirement.Sets (sets_of_masks m masks)
