(** Exact rational numbers over {!Bigint}.

    Values are kept normalized: the denominator is positive and coprime
    with the numerator; zero is [0/1].  These are the scalars of the LP
    layer — the approximation guarantees of the paper are statements
    about exact LP optima, and rounding thresholds such as [1/l_max] are
    brittle under floating point. *)

type t

val zero : t
val one : t
val two : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] normalizes the fraction.
    @raise Division_by_zero if [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
val of_bigint : Bigint.t -> t

val num : t -> Bigint.t
val den : t -> Bigint.t

(** {1 Arithmetic} *)

val neg : t -> t
val inv : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mul_int : t -> int -> t
val div_int : t -> int -> t

(** {1 Comparisons} *)

val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val lt : t -> t -> bool
val leq : t -> t -> bool
val gt : t -> t -> bool
val geq : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Rounding and conversions} *)

val floor : t -> Bigint.t
(** Largest integer [<= t]. *)

val ceil : t -> Bigint.t
(** Smallest integer [>= t]. *)

val is_integer : t -> bool

val to_int_opt : t -> int option
(** [Some n] iff the value is an integer fitting a native [int]. *)

val to_float : t -> float

(** {1 Printing and parsing} *)

val to_string : t -> string
(** ["p/q"], or just ["p"] when the value is an integer. *)

val of_string : string -> t
(** Accepts ["p"], ["p/q"] and simple decimals like ["1.25"]. An
    optional sign and at most nine digits is read natively, without
    {!Bigint}.
    @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit

(** {1 Aggregation} *)

val sum : t list -> t
