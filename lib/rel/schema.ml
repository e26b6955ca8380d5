type t = Attr.t array

let of_list attrs =
  let names = List.map Attr.name attrs in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Schema.of_list: duplicate attribute names";
  Array.of_list attrs

let of_distinct attrs = Array.of_list attrs
let attrs t = Array.to_list t
let names t = List.map Attr.name (attrs t)
let size t = Array.length t
let attr t i = t.(i)

let index_of t name =
  let rec go i =
    if i >= Array.length t then raise Not_found
    else if Attr.name t.(i) = name then i
    else go (i + 1)
  in
  go 0

let mem t name = match index_of t name with _ -> true | exception Not_found -> false

let find t name =
  match index_of t name with i -> Some t.(i) | exception Not_found -> None

let restrict t names =
  List.iter (fun n -> ignore (index_of t n)) names;
  of_list (List.filter (fun a -> List.mem (Attr.name a) names) (attrs t))

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Attr.equal a b

let domain_size t =
  let limit = 1 lsl 40 in
  Array.fold_left
    (fun acc a ->
      let acc = acc * Attr.dom a in
      if acc > limit then failwith "Schema.domain_size: too large to enumerate"
      else acc)
    1 t

let all_tuples t =
  let n = domain_size t in
  let k = size t in
  List.init n (fun idx ->
      let tuple = Array.make k 0 in
      let rem = ref idx in
      (* Lexicographic: the last attribute varies fastest. *)
      for i = k - 1 downto 0 do
        let d = Attr.dom t.(i) in
        tuple.(i) <- !rem mod d;
        rem := !rem / d
      done;
      tuple)

let pp fmt t =
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") Attr.pp)
    (attrs t)
