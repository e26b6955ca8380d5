(** Linear and integer-linear programs in one flat row layout.

    All problems are minimization problems over variables with rational
    bounds (default [0 <= x], no upper bound). Integer-marked variables
    are only interpreted by {!Ilp}; {!Simplex} solves the continuous
    relaxation of whatever it is given.

    Every layer reads a program in the same layout: the IP builders
    append rows straight into it, {!Presolve} compacts it,
    {!Fsimplex} lays its float columns out from it, {!Certify} checks
    its certificates on its rows and bounds, and {!Simplex.Exact} and
    {!Ilp} evaluate rows and the objective on it. Row [r]'s terms
    are [term_var.(k)], [term_coef.(k)] for [k] from [row_start.(r)] to
    [row_start.(r + 1) - 1], in ascending variable order, each variable
    at most once and every coefficient non-zero; [cmp.(r)] and
    [rhs.(r)] complete the row. The objective is dense: [obj.(i)] is
    variable [i]'s cost. Variable names are made only when a program is
    printed ({!pp}) or an error names a variable ({!var_name}). *)

type cmp = Le | Ge | Eq

type snapshot = private {
  n : int;  (** variables *)
  lb : Rat.t array;
  ub : Rat.t option array;
  integer : bool array;
  obj : Rat.t array;  (** dense objective, one cost per variable *)
  m : int;  (** rows *)
  row_start : int array;  (** [m + 1] offsets into [term_var] / [term_coef] *)
  term_var : int array;
  term_coef : Rat.t array;
  cmp : cmp array;
  rhs : Rat.t array;
  name : int -> string;  (** a variable's name, made on demand *)
}

type t
(** A program under construction. *)

val create : ?vars:int -> ?rows:int -> ?terms:int -> unit -> t
(** The optional counts are initial capacities; the arrays grow as
    needed. A builder whose counts are exact (as {!Presolve}'s are)
    hands its arrays to {!snapshot} without copying them. *)

val add_var : ?lb:Rat.t -> ?ub:Rat.t -> ?integer:bool -> t -> int
(** Returns the variable index. [lb] defaults to 0; the cost is 0 until
    {!set_cost}. *)

val set_cost : t -> int -> Rat.t -> unit
(** The variable's objective coefficient. *)

val add_term : t -> int -> Rat.t -> unit
(** Appends [c * x_v] to the open row. *)

val close_row : t -> cmp -> Rat.t -> unit
(** Closes the open row as [terms cmp rhs], dropping zero
    coefficients.
    @raise Invalid_argument unless the other terms came in strictly
    ascending variable order. *)

val add_row : t -> (int * Rat.t) list -> cmp -> Rat.t -> unit
(** [add_term] for each pair, then [close_row]. *)

val snapshot : ?name:(int -> string) -> t -> snapshot
(** The finished program. [name] (default [x0], [x1], ...) names
    variables when the program is printed. A builder yields one
    snapshot.
    @raise Invalid_argument on a second call. *)

val with_bounds : snapshot -> lb:Rat.t array -> ub:Rat.t option array -> snapshot
(** A copy of the snapshot with replaced bound arrays (used by the
    branch-and-bound solver). *)

val relax : snapshot -> snapshot
(** Same problem with every integrality mark removed. *)

val all_integer : snapshot -> snapshot
(** Same problem with every variable marked integral. *)

val var_name : snapshot -> int -> string

val row_value : snapshot -> int -> Rat.t array -> Rat.t
(** [row_value s r x]: row [r]'s left-hand side at the point [x]. *)

val obj_value : snapshot -> Rat.t array -> Rat.t
(** The objective at a point. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable dump of the program (for debugging and docs). *)
