let range n = List.init n Fun.id

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let max_by f xs = List.fold_left (fun acc x -> max acc (f x)) 0 xs

let dedup xs = List.sort_uniq compare xs

let has_duplicate xs =
  let seen = Hashtbl.create 16 in
  List.exists
    (fun x ->
      Hashtbl.mem seen x
      || begin
           Hashtbl.add seen x ();
           false
         end)
    xs

let assoc_table l =
  let t = Hashtbl.create 16 in
  List.iter (fun (k, v) -> if not (Hashtbl.mem t k) then Hashtbl.add t k v) l;
  t

let is_subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let inter xs ys = dedup (List.filter (fun x -> List.mem x ys) xs)

let diff xs ys = List.filter (fun x -> not (List.mem x ys)) xs

let union xs ys = dedup (xs @ ys)

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun tl -> c :: tl) tails) choices

let take k xs = List.filteri (fun i _ -> i < k) xs

let minimal_antichain subset sets =
  let strictly_below a b = subset a b && not (subset b a) in
  List.filter
    (fun s -> not (List.exists (fun s' -> strictly_below s' s) sets))
    sets
  |> dedup
