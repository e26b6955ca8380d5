type t = { hidden : string list; privatized : string list; cost : Rat.t }

let of_mask (inst : Instance.t) mask =
  (* Walking the ids by descending name rank lists the hidden names in
     ascending order with no sort. *)
  let hidden = ref [] in
  for r = Array.length inst.Instance.by_rank - 1 downto 0 do
    let i = inst.Instance.by_rank.(r) in
    if mask.(i) then hidden := inst.Instance.names.(i) :: !hidden
  done;
  let privatized =
    Array.fold_right
      (fun p acc -> if Instance.exposed p mask then p.Instance.pname :: acc else acc)
      inst.Instance.pubs []
  in
  { hidden = !hidden; privatized; cost = Instance.mask_cost inst mask }

let of_ids inst ids =
  let mask = Array.make (Instance.n_attrs inst) false in
  List.iter (fun i -> mask.(i) <- true) ids;
  of_mask inst mask

let of_hidden inst hidden =
  of_ids inst
    (List.map
       (fun a ->
         match Instance.find inst a with
         | Some i -> i
         | None -> invalid_arg (Printf.sprintf "Instance.attr_cost: unknown attribute %s" a))
       hidden)

let is_feasible inst t = Instance.feasible inst ~hidden:t.hidden ~privatized:t.privatized

let compare_cost a b = Rat.compare a.cost b.cost

let pp fmt t =
  Format.fprintf fmt "hide {%s}%s cost %s"
    (String.concat ", " t.hidden)
    (match t.privatized with
    | [] -> ""
    | ps -> Printf.sprintf " privatize {%s}" (String.concat ", " ps))
    (Rat.to_string t.cost)
