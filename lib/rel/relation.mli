(** Finite relations with set semantics.

    Rows are kept sorted and deduplicated, so structural equality of
    relations is [Stdlib] equality of their row lists. These model both
    module functionalities (Section 2.1) and workflow provenance
    relations (Section 2.3). *)

type t

val create : Schema.t -> Tuple.t list -> t
(** Sorts, deduplicates, and validates every row against the schema.
    @raise Invalid_argument if a row is malformed. *)

val of_sorted : Schema.t -> Tuple.t list -> t
(** {!create} for rows the caller has already checked against the
    schema, sorted ascending by {!Tuple.compare} and deduplicated; no
    check, no sort. *)

val schema : t -> Schema.t
val rows : t -> Tuple.t list
val size : t -> int
val is_empty : t -> bool

(** O(1) amortized: rows are indexed in a hashed set built lazily on the
    first membership query. *)
val mem : t -> Tuple.t -> bool
val equal : t -> t -> bool

val full : Schema.t -> t
(** The relation containing every tuple of the schema. *)

val project : t -> string list -> t
(** [pi_names(t)], with set semantics (duplicates collapse). *)

val select : t -> (Schema.t -> Tuple.t -> bool) -> t

val reorder : t -> string list -> t
(** Permute columns into the given order. The names must be exactly the
    relation's attribute names.
    @raise Invalid_argument otherwise. *)

val join : t -> t -> t
(** Natural join on attributes with equal names. Shared names must carry
    equal domains.
    @raise Invalid_argument if a shared name has conflicting domains. *)

val satisfies_fd : t -> lhs:string list -> rhs:string list -> bool
(** Does the functional dependency [lhs -> rhs] hold? *)

val distinct_values : t -> string list -> int
(** Number of distinct projections onto the given attributes. *)

val fold : t -> init:'a -> f:('a -> Tuple.t -> 'a) -> 'a
val iter : t -> f:(Tuple.t -> unit) -> unit

val to_table : ?groups:(string * string list) list -> t -> Svutil.Table.t
(** Render for display; [groups] optionally prefixes header names with
    role labels, e.g. [("I", ["a1"; "a2"])] as in the paper's figures. *)

val pp : Format.formatter -> t -> unit
