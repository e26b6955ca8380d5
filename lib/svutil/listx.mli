(** Small list helpers shared across the library. *)

val range : int -> int list
(** [range n] is [[0; 1; ...; n-1]]. *)

val sum_by : ('a -> int) -> 'a list -> int

val max_by : ('a -> int) -> 'a list -> int
(** Maximum of [f x] over the list; 0 for the empty list. *)

val dedup : 'a list -> 'a list
(** Sort (polymorphic compare) and remove duplicates. *)

val has_duplicate : 'a list -> bool
(** Some element occurs twice (hashed, linear time). *)

val assoc_table : ('a * 'b) list -> ('a, 'b) Hashtbl.t
(** The bindings as a hash table in which, as with [List.assoc], the
    first binding of a key wins. *)

val is_subset : 'a list -> 'a list -> bool
(** [is_subset xs ys] iff every element of [xs] occurs in [ys]. *)

val inter : 'a list -> 'a list -> 'a list
(** Elements of the first list that occur in the second, deduplicated. *)

val diff : 'a list -> 'a list -> 'a list
(** Elements of the first list that do not occur in the second. *)

val union : 'a list -> 'a list -> 'a list
(** Deduplicated union. *)

val cartesian : 'a list list -> 'a list list
(** All ways of picking one element per inner list, in order. *)

val take : int -> 'a list -> 'a list

val minimal_antichain : ('a list -> 'a list -> bool) -> 'a list list -> 'a list list
(** [minimal_antichain subset sets] keeps the sets that contain no other
    set of the collection as a subset (with respect to [subset]). *)
