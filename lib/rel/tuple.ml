type t = int array

let value schema t name = t.(Schema.index_of schema name)

let project schema names t = Plan.apply (Plan.restrict schema names) t
let project_ordered schema names t = Plan.apply (Plan.ordered schema names) t

let validate schema t =
  let k = Array.length t in
  k = Schema.size schema
  &&
  let rec go i = i = k || (t.(i) >= 0 && t.(i) < Attr.dom (Schema.attr schema i) && go (i + 1)) in
  go 0

(* [Stdlib.compare]'s order on int arrays — shorter first, then
   lexicographic — without the polymorphic walk. *)
let compare (a : t) (b : t) =
  let k = Array.length a in
  if k <> Array.length b then Int.compare k (Array.length b)
  else
    let rec go i =
      if i = k then 0
      else
        let c = Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let equal a b = compare a b = 0

let to_string t =
  "(" ^ String.concat "," (List.map string_of_int (Array.to_list t)) ^ ")"

let pp fmt t = Format.pp_print_string fmt (to_string t)
