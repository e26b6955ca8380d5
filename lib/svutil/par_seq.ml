(* Sequential fallback, selected by dune on OCaml 4.x where Domains are
   unavailable. Kept signature-identical with par_domains.ml; see
   par.mli. *)

let default_jobs () = 1
let map_array ?jobs:_ f xs = Array.map f xs
let map ?jobs:_ f l = List.map f l
