(** Enumeration of subsets of a finite universe, used by the exhaustive
    safe-view search (Section 3.2) and the brute-force solvers. *)

val max_universe : int
(** 25: the largest universe the enumerations below accept. Exhaustive
    search beyond it is a bug, not a workload; the W042 lint rejects
    private modules wider than this before anything enumerates them. *)

val check_universe : 'a list -> unit
(** @raise Invalid_argument if the list is longer than {!max_universe}. *)

val all : 'a list -> 'a list list
(** All [2^n] subsets. Raises [Invalid_argument] for universes larger
    than {!max_universe} elements. *)

val of_size : 'a list -> int -> 'a list list
(** All subsets of the given cardinality. *)

val by_increasing_size : 'a list -> 'a list list
(** All subsets ordered by cardinality (then lexicographically by
    position), which lets searches that rely on upward-closedness
    (Proposition 1) stop early. *)

val iter : 'a list -> ('a list -> unit) -> unit
(** Iterate over all subsets without materializing the list of lists. *)

val of_mask : 'a list -> int -> 'a list
(** The elements whose position's bit is set in the mask, in list
    order: bit [i] stands for the [i]-th element. Bits past the end of
    the list are ignored. *)

val popcount : int -> int
(** Number of set bits of a non-negative int: the size of the subset a
    mask stands for. *)
