let max_universe = 25

let check_universe xs =
  if List.length xs > max_universe then
    invalid_arg "Subset: universe too large for exhaustive enumeration"

let of_mask xs mask =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) xs

let popcount mask =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go mask 0

let all xs =
  check_universe xs;
  let n = List.length xs in
  List.init (1 lsl n) (of_mask xs)

let iter xs f =
  check_universe xs;
  let n = List.length xs in
  for mask = 0 to (1 lsl n) - 1 do
    f (of_mask xs mask)
  done

let of_size xs k =
  check_universe xs;
  let rec go remaining k =
    if k = 0 then [ [] ]
    else
      match remaining with
      | [] -> []
      | x :: rest ->
          List.map (fun s -> x :: s) (go rest (k - 1)) @ go rest k
  in
  go xs k

let by_increasing_size xs =
  check_universe xs;
  List.concat_map (of_size xs) (Listx.range (List.length xs + 1))
