type module_req = {
  m_name : string;
  inputs : string list;
  outputs : string list;
  req : Requirement.t;
}

type public_mod = { p_name : string; p_cost : Rat.t; p_attrs : string list }

type req = Card of Requirement.cardinality | Sets of (int array * int array) array
type pmod = { mname : string; ins : int array; outs : int array; ireq : req }
type pub = { pname : string; pcost : Rat.t; pattrs : int array }

type t = {
  names : string array;
  costs : Rat.t array;
  rank : int array;
  by_rank : int array;
  pmods : pmod array;
  pubs : pub array;
  set_form : bool;
}

(* The one sort of the names: [by_rank] lists the ids in name order. *)
let ranks names =
  let n = Array.length names in
  let by_rank = Array.init n Fun.id in
  Array.stable_sort (fun i j -> String.compare names.(i) names.(j)) by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  (rank, by_rank)

let find_in names by_rank a =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) lsr 1 in
      let i = by_rank.(mid) in
      let c = String.compare a names.(i) in
      if c = 0 then Some i else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length by_rank)

let find t a = find_in t.names t.by_rank a

let non_negative owner c =
  if Rat.sign c < 0 then invalid_arg (Printf.sprintf "Instance.make: negative cost for %s" owner)

let of_ids ~names ~costs ~pubs pmods =
  Array.iteri (fun i c -> non_negative names.(i) c) costs;
  Array.iter (fun p -> non_negative p.pname p.pcost) pubs;
  let rank, by_rank = ranks names in
  { names; costs; rank; by_rank; pmods = pmods ~rank; pubs; set_form = false }

let req_of_derived ~rank ~ins ~outs = function
  | Derive.Card_form card -> Card card
  | Derive.Set_masks masks ->
      let n_in = Array.length ins in
      (* Input positions by name, so each option's input half comes out
         sorted with no per-option sort. *)
      let by_name = Array.init n_in Fun.id in
      Array.stable_sort (fun p q -> Int.compare rank.(ins.(p)) rank.(ins.(q))) by_name;
      let pick ids order mask =
        let k = ref 0 in
        Array.iter (fun p -> if mask land (1 lsl p) <> 0 then incr k) order;
        let a = Array.make !k 0 in
        let j = ref 0 in
        Array.iter
          (fun p ->
            if mask land (1 lsl p) <> 0 then begin
              a.(!j) <- ids.(p);
              incr j
            end)
          order;
        a
      in
      let in_order = by_name and out_order = Array.init (Array.length outs) Fun.id in
      Sets
        (Array.of_list
           (List.map
              (fun mask -> (pick ins in_order mask, pick outs out_order (mask lsr n_in)))
              masks))

let make ~attr_costs ~mods ?(publics = []) () =
  let names = Array.of_list (List.map fst attr_costs) in
  let costs = Array.of_list (List.map snd attr_costs) in
  let rank, by_rank = ranks names in
  for r = 1 to Array.length by_rank - 1 do
    if String.equal names.(by_rank.(r - 1)) names.(by_rank.(r)) then
      invalid_arg "Instance.make: duplicate attributes"
  done;
  Array.iteri (fun i c -> non_negative names.(i) c) costs;
  if
    Svutil.Listx.has_duplicate
      (List.map (fun m -> m.m_name) mods @ List.map (fun p -> p.p_name) publics)
  then invalid_arg "Instance.make: duplicate module names";
  let ids owner l =
    Array.of_list
      (List.map
         (fun a ->
           match find_in names by_rank a with
           | Some i -> i
           | None ->
               invalid_arg
                 (Printf.sprintf "Instance.make: %s references unknown attribute %s" owner a))
         l)
  in
  let pmods =
    List.map
      (fun m ->
        let ins = ids m.m_name m.inputs in
        let outs = ids m.m_name m.outputs in
        let ireq =
          match m.req with
          | Requirement.Card l -> Card l
          | Requirement.Sets l ->
              Sets (Array.of_list (List.map (fun (i, o) -> (ids m.m_name i, ids m.m_name o)) l))
        in
        { mname = m.m_name; ins; outs; ireq })
      mods
  in
  let pubs =
    List.map
      (fun p ->
        non_negative p.p_name p.p_cost;
        { pname = p.p_name; pcost = p.p_cost; pattrs = ids p.p_name p.p_attrs })
      publics
  in
  { names; costs; rank; by_rank; pmods = Array.of_list pmods; pubs = Array.of_list pubs;
    set_form = false }

let of_workflow w ~gamma ?(gamma_overrides = []) ~cost ?(publics = []) () =
  let attr_costs = List.map (fun a -> (a, cost a)) (Wf.Workflow.attr_names w) in
  let overrides = Svutil.Listx.assoc_table gamma_overrides
  and public_tbl = Svutil.Listx.assoc_table publics
  and by_name =
    Svutil.Listx.assoc_table
      (List.map (fun (m : Wf.Wmodule.t) -> (m.Wf.Wmodule.name, m)) (Wf.Workflow.modules w))
  in
  let gamma_of name = Option.value ~default:gamma (Hashtbl.find_opt overrides name) in
  let mods =
    Wf.Workflow.modules w
    |> List.filter (fun (m : Wf.Wmodule.t) -> not (Hashtbl.mem public_tbl m.Wf.Wmodule.name))
    |> List.map (fun (m : Wf.Wmodule.t) ->
           {
             m_name = m.Wf.Wmodule.name;
             inputs = Wf.Wmodule.input_names m;
             outputs = Wf.Wmodule.output_names m;
             req = Derive.requirement m ~gamma:(gamma_of m.Wf.Wmodule.name);
           })
  in
  let publics =
    List.map
      (fun (name, p_cost) ->
        match Hashtbl.find_opt by_name name with
        | None -> invalid_arg (Printf.sprintf "Instance.of_workflow: no module %s" name)
        | Some m -> { p_name = name; p_cost; p_attrs = Wf.Wmodule.attr_names m })
      publics
  in
  make ~attr_costs ~mods ~publics ()

(* {1 Names} *)

let n_attrs t = Array.length t.names
let attrs t = Array.to_list t.names

let attr_cost t a =
  match find t a with
  | Some i -> t.costs.(i)
  | None -> invalid_arg (Printf.sprintf "Instance.attr_cost: unknown attribute %s" a)

let names_of t ids = Array.fold_right (fun i acc -> t.names.(i) :: acc) ids []
let attr_costs t = List.init (n_attrs t) (fun i -> (t.names.(i), t.costs.(i)))

let mods t =
  Array.fold_right
    (fun m acc ->
      let req =
        match m.ireq with
        | Card l -> Requirement.Card l
        | Sets a ->
            Requirement.Sets
              (Array.fold_right (fun (i, o) acc -> (names_of t i, names_of t o) :: acc) a [])
      in
      { m_name = m.mname; inputs = names_of t m.ins; outputs = names_of t m.outs; req } :: acc)
    t.pmods []

let publics t =
  Array.fold_right
    (fun p acc -> { p_name = p.pname; p_cost = p.pcost; p_attrs = names_of t p.pattrs } :: acc)
    t.pubs []

let req_length = function Card l -> List.length l | Sets a -> Array.length a
let lmax t = Array.fold_left (fun acc m -> max acc (req_length m.ireq)) 0 t.pmods
let n_modules t = Array.length t.pmods

(* {1 Hidden sets as masks} *)

let mask_of_names t hidden =
  let mask = Array.make (n_attrs t) false in
  List.iter (fun a -> match find t a with Some i -> mask.(i) <- true | None -> ()) hidden;
  mask

let count_hidden mask ids = Array.fold_left (fun n i -> if mask.(i) then n + 1 else n) 0 ids
let all_hidden mask ids = Array.for_all (fun i -> mask.(i)) ids

let satisfied m mask =
  match m.ireq with
  | Card l ->
      let hin = count_hidden mask m.ins and hout = count_hidden mask m.outs in
      List.exists (fun (a, b) -> hin >= a && hout >= b) l
  | Sets a -> Array.exists (fun (i, o) -> all_hidden mask i && all_hidden mask o) a

let all_satisfied t mask = Array.for_all (fun m -> satisfied m mask) t.pmods
let exposed p mask = Array.exists (fun i -> mask.(i)) p.pattrs

let mask_cost t mask =
  let c = ref Rat.zero in
  Array.iteri (fun i h -> if h then c := Rat.add !c t.costs.(i)) mask;
  Array.iter (fun p -> if exposed p mask then c := Rat.add !c p.pcost) t.pubs;
  !c

(* {1 Name-level queries} *)

let required_privatizations t ~hidden =
  let mask = mask_of_names t hidden in
  Array.fold_right (fun p acc -> if exposed p mask then p.pname :: acc else acc) t.pubs []

let feasible t ~hidden ~privatized =
  let mask = mask_of_names t hidden in
  all_satisfied t mask
  && Array.for_all (fun p -> (not (exposed p mask)) || List.mem p.pname privatized) t.pubs

let cost t ~hidden ~privatized =
  let mask = Array.make (n_attrs t) false in
  List.iter
    (fun a ->
      match find t a with
      | Some i -> mask.(i) <- true
      | None -> invalid_arg (Printf.sprintf "Instance.attr_cost: unknown attribute %s" a))
    hidden;
  let c = ref Rat.zero in
  Array.iteri (fun i h -> if h then c := Rat.add !c t.costs.(i)) mask;
  Array.iter (fun p -> if List.mem p.pname privatized then c := Rat.add !c p.pcost) t.pubs;
  !c

(* {1 Set form}

   Every side is an id array ordered by name rank with no repeats. The
   options are sorted as [compare] orders rank lists (side by side, a
   prefix first), repeats are dropped, and so is every option that
   contains another: what {!Requirement.normalize_sets} does on rank
   lists, read through [rank] on the id arrays. *)

let rec strictly_ranked rank ids i =
  i >= Array.length ids || (rank.(ids.(i - 1)) < rank.(ids.(i)) && strictly_ranked rank ids (i + 1))

(* [a] sorted in place by [cmp rank], by insertion: stable, linear on
   the sides and option lists here, which are mostly in order already,
   and at worst quadratic, as the containment pass after it is. [cmp] is
   a top-level function, so no closure is built per call. *)
let insertion_sort cmp rank a =
  for j = 1 to Array.length a - 1 do
    let x = a.(j) in
    let k = ref (j - 1) in
    while !k >= 0 && cmp rank a.(!k) x > 0 do
      a.(!k + 1) <- a.(!k);
      decr k
    done;
    a.(!k + 1) <- x
  done

let compare_rank rank i j = Int.compare rank.(i) rank.(j)

(* [ids] ordered by rank without repeats; [ids] itself when it already is. *)
let by_rank_set rank ids =
  if strictly_ranked rank ids 1 then ids
  else begin
    let a = Array.copy ids in
    insertion_sort compare_rank rank a;
    let k = ref 0 in
    for j = 0 to Array.length a - 1 do
      if !k = 0 || a.(!k - 1) <> a.(j) then begin
        a.(!k) <- a.(j);
        incr k
      end
    done;
    if !k = Array.length a then a else Array.sub a 0 !k
  end

(* Two sides in the order [compare] gives their rank lists, from
   position [i]: a prefix first. *)
let rec compare_side rank a b i =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else
    let c = Int.compare rank.(a.(i)) rank.(b.(i)) in
    if c <> 0 then c else compare_side rank a b (i + 1)

let compare_option rank (i, o) (i', o') =
  let c = compare_side rank i i' 0 in
  if c <> 0 then c else compare_side rank o o' 0

(* [a.(i ..)] is a subset of [b.(j ..)]; both ordered by rank. *)
let rec side_subset rank a b i j =
  i = Array.length a
  || j < Array.length b
     &&
     let c = Int.compare rank.(a.(i)) rank.(b.(j)) in
     if c = 0 then side_subset rank a b (i + 1) (j + 1) else c > 0 && side_subset rank a b i (j + 1)

let contains rank (i, o) (i', o') = side_subset rank i i' 0 0 && side_subset rank o o' 0 0

(* Some other option of [opts.(0 .. n - 1)] is contained in option [j]. *)
let rec dominated rank opts n j j' =
  j' < n && ((j' <> j && contains rank opts.(j') opts.(j)) || dominated rank opts n j (j' + 1))

(* [opts], a fresh array, normalized in place: sides ordered by rank,
   options sorted (a module has few), repeats dropped, then every option
   that contains another. *)
let normalize_options rank opts =
  Array.iteri
    (fun j (i, o) ->
      let i' = by_rank_set rank i and o' = by_rank_set rank o in
      if i' != i || o' != o then opts.(j) <- (i', o'))
    opts;
  insertion_sort compare_option rank opts;
  let n = ref 0 in
  for j = 0 to Array.length opts - 1 do
    if !n = 0 || compare_option rank opts.(!n - 1) opts.(j) <> 0 then begin
      opts.(!n) <- opts.(j);
      incr n
    end
  done;
  let n = !n in
  let drop = Array.make n false in
  for j = 0 to n - 1 do
    drop.(j) <- dominated rank opts n j 0
  done;
  let k = ref 0 in
  for j = 0 to n - 1 do
    if not drop.(j) then begin
      opts.(!k) <- opts.(j);
      incr k
    end
  done;
  if !k = Array.length opts then opts else Array.sub opts 0 !k

let rec binomial n k =
  if k < 0 || k > n then 0 else if k = 0 then 1 else binomial (n - 1) (k - 1) * n / k

(* The subsets of [ids] of size [k], by position, in lexicographic
   order: each keeps [ids]'s order. *)
let of_size ids k =
  let n = Array.length ids in
  if k < 0 || k > n then [||]
  else begin
    let out = Array.make (binomial n k) [||] and pick = Array.make k 0 and next = ref 0 in
    let rec go from j =
      if j = k then begin
        out.(!next) <- Array.copy pick;
        incr next
      end
      else
        for p = from to n - (k - j) do
          pick.(j) <- ids.(p);
          go (p + 1) (j + 1)
        done
    in
    go 0 0;
    out
  end

(* Every (inputs, outputs) choice of each size pair. The sides are
   sorted by rank first, repeats kept (a choice that picks one attribute
   twice shrinks when normalized, as it always has), so most choices
   are in order already. *)
let card_options rank ~ins ~outs card =
  let check a =
    if Array.length a > Svutil.Subset.max_universe then Svutil.Subset.check_universe (Array.to_list a)
  in
  if card <> [] then (check ins; check outs);
  let sorted a =
    let a = Array.copy a in
    insertion_sort compare_rank rank a;
    a
  in
  let ins = sorted ins and outs = sorted outs in
  let n_in = Array.length ins and n_out = Array.length outs in
  let count (a, b) = binomial n_in a * binomial n_out b in
  let opts = Array.make (List.fold_left (fun acc ab -> acc + count ab) 0 card) ([||], [||]) in
  let next = ref 0 in
  List.iter
    (fun (a, b) ->
      let is = of_size ins a and os = of_size outs b in
      Array.iter
        (fun i ->
          Array.iter
            (fun o ->
              opts.(!next) <- (i, o);
              incr next)
            os)
        is)
    card;
  opts

let to_sets t =
  if t.set_form then t
  else
    let set_req m =
      let opts =
        match m.ireq with
        | Card l -> card_options t.rank ~ins:m.ins ~outs:m.outs l
        | Sets a -> Array.copy a
      in
      { m with ireq = Sets (normalize_options t.rank opts) }
    in
    { t with pmods = Array.map set_req t.pmods; set_form = true }

let pp fmt t =
  Format.fprintf fmt "secure-view instance: %d attrs, %d modules, %d publics@."
    (n_attrs t) (Array.length t.pmods) (Array.length t.pubs);
  List.iter
    (fun m -> Format.fprintf fmt "  %s: %a@." m.m_name Requirement.pp m.req)
    (mods t);
  List.iter
    (fun p ->
      Format.fprintf fmt "  public %s (cost %s): {%s}@." p.p_name (Rat.to_string p.p_cost)
        (String.concat "," p.p_attrs))
    (publics t)
