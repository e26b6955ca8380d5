(** Static diagnostics for workflow specs.

    The solvers presuppose well-formed inputs: modules that are genuine
    functions ([I -> O] FDs hold), DAG wiring with unique producers, and
    privacy requirements that some view can actually reach. A malformed
    spec otherwise fails late — deep inside the exponential
    world-enumeration paths — or not at all. [Wfcheck] certifies the
    preconditions up front, over the location-carrying {!Wf.Parse.raw}
    declarations, so even specs that cannot elaborate to a
    {!Wf.Workflow.t} (cycles, duplicate producers, FD violations) get
    precise diagnostics.

    Every diagnostic carries a stable code. Codes are grouped:
    - [W00x] wiring/DAG analysis (undeclared attributes, duplicate
      producers, cycles, unreachable modules, dead attributes);
    - [W01x] functionality analysis (FD violations, duplicate rows,
      incomplete input domains, out-of-domain values, builtin misuse);
    - [W02x] privacy feasibility (a requested Gamma no view can reach,
      computed from {!Privacy.Standalone.max_achievable_gamma}'s closed
      form without enumerating worlds; identity wirings);
    - [W03x] cost/constraint sanity (negative costs, overrides naming
      unknown modules, degenerate domains, duplicate declarations);
    - [W04x] enumeration blow-up estimates (saturating world counts that
      would exceed the brute-force guard {!Privacy.Worlds_naive.default_max});
    - [W05x] privacy-flow findings from {!Flow} (attributes provably
      irrelevant to every requirement yet carrying a cost; public
      modules privatized in every feasible solution). These need the
      elaborated spec, so they only fire on specs with no errors and no
      blow-up guard. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string

type diagnostic = {
  code : string;  (** stable, e.g. ["W010"] *)
  severity : severity;
  line : int;  (** 1-based source line; 0 when unknown *)
  subject : string;  (** the offending module or attribute *)
  message : string;
  hint : string;  (** one-line fix hint *)
}

val code_reference : (string * severity * string * string) list
(** The catalogue of [(code, severity, meaning, hint)], in code order —
    the single source the checks and the CLI's [--codes] listing draw
    from. *)

val diagnostic : ?line:int -> subject:string -> string -> string -> diagnostic
(** [diagnostic ~subject code message] with the catalogue's severity
    and hint for [code]; [line] defaults to 0 (unknown). *)

val check_raw : Wf.Parse.raw -> diagnostic list
(** Run every check over raw declarations, sorted by line then code.
    Value-level analyses (reachability, feasibility, blow-up) only run
    once the spec is structurally sound, so they never see malformed
    tables. *)

val check_spec : Wf.Parse.spec -> diagnostic list
(** The Error diagnostics of [check_raw] on the declarations the spec
    was parsed from — the pre-flight used by the CLI's
    [analyze]/[solve]/[check]/[batch], the daemon and perfbench, which
    keep only errors. It skips the W05x flow pass (a second derivation
    of every module and a full {!Flow} analysis for findings that are
    never errors); [lint] reports those through [check_raw]. *)

val raw_of_workflow :
  ?publics:(string * Rat.t) list ->
  ?costs:(string * Rat.t) list ->
  ?gamma_overrides:(string * int) list ->
  gamma:int ->
  Wf.Workflow.t ->
  Wf.Parse.raw
(** Reconstruct declarations (line 0) from a built workflow — module
    tables become explicit rows — so programmatic workflows
    ({!Wf.Gen}, the examples) can be linted too. Costs default to 1. *)

val check_workflow :
  ?publics:(string * Rat.t) list ->
  ?costs:(string * Rat.t) list ->
  ?gamma_overrides:(string * int) list ->
  gamma:int ->
  Wf.Workflow.t ->
  diagnostic list
(** [check_raw] of {!raw_of_workflow}. *)

val errors : diagnostic list -> diagnostic list
val has_errors : diagnostic list -> bool

val pp_diagnostic : ?file:string -> Format.formatter -> diagnostic -> unit
(** [FILE:LINE: CODE severity: message (fix: hint)]. *)

val to_text : ?file:string -> diagnostic list -> string
(** One {!pp_diagnostic} line per diagnostic. *)

val to_json : diagnostic list -> string
(** A JSON array of objects with fields [code], [severity], [line],
    [subject], [message], [hint]. *)
