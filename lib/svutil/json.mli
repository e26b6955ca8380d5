(** A minimal generic JSON tree: parser, printer, and accessors.

    Built for the serve protocol ({!Serve.Request} lines and
    {!Serve.Response} objects), where request fields are identifiers,
    workflow text, small integers and millisecond budgets — all exactly
    representable with [float] numbers.  {!Metrics.of_json} keeps its
    own specialized parser (it decodes straight into a registry without
    building a tree); everything else should use this module instead of
    growing another hand-rolled reader. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string
(** Raised internally; {!of_string} never lets it escape. *)

val max_depth : int
(** Deepest nesting of arrays and objects {!of_string} accepts: 512. *)

val of_string : string -> (t, string) result
(** Parse one JSON document.  Trailing non-whitespace is an error, and
    so is nesting deeper than {!max_depth}, reported at the offset of
    the first bracket past the limit. *)

val to_string : t -> string
(** One-line serialization.  [of_string (to_string j)] re-reads [j]
    exactly for every tree this library builds (numbers are printed with
    round-trip precision); the one exception is a non-finite [Num],
    which JSON cannot represent and which serializes as [null]. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

val number_to_string : float -> string
(** Integral floats print without a fraction; everything else with
    enough digits to round-trip bit-exactly (including negative
    exponents like [1e-07]). Non-finite floats print as ["null"]. *)

(** {1 Accessors}

    All return [None] on a missing key or kind mismatch — protocol code
    threads them with [Option.bind] and reports one aggregate error. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_bool : t -> bool option
val to_float : t -> float option

val to_int : t -> int option
(** Integral numbers with magnitude at most [1e9]; [None] otherwise. *)

val str_member : string -> t -> string option
val bool_member : string -> t -> bool option
val float_member : string -> t -> float option
val int_member : string -> t -> int option
