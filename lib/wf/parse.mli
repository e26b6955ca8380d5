(** A small text format for workflows, used by the command-line tool.

    Line-oriented; [#] starts a comment. Directives:

    {v
    gamma 2                     # default privacy requirement
    gamma m1 4                  # per-module override
    attr a1 dom 2 cost 3        # dom defaults to 2, cost to 1 (rationals ok)
    module m1 private inputs a1 a2 outputs a3
    module qc public cost 5 inputs x outputs y
    fn m1 and                   # builtin: identity|negate|constant v..|majority|and|or|xor
    row m1 0 1 -> 1             # or explicit table rows (partial tables allowed)
    v}

    Builtin functionalities require boolean attributes. A module must
    have either an [fn] directive or at least one [row].

    Parsing is two-phase. {!parse_raw_string} only rejects syntax it
    cannot tokenize and yields a {!raw} declaration list that carries
    the source line of every declaration — including semantically broken
    ones (duplicate names, undeclared attributes, cyclic wiring, FD
    violations), which is what {!Analysis.Wfcheck} lints. {!spec_of_raw}
    then enforces the semantic rules and builds the workflow.

    Tokens are maximal runs of characters other than space and tab; [#]
    starts a comment and only ['\n'] ends a line. The raw phase is one
    pass over the text by offsets: every name is interned where it lies
    (each distinct name is allocated once and every mention shares that
    string) and plain integers are read in place. {!parse_string} hands
    the interned symbols straight to elaboration, which numbers
    attributes and modules on them and builds module tables from int
    rows. Elaboration proves each structural rule once, in time linear
    in the spec up to sorting each module's rows (O(r log r) for r
    rows), so
    {!Analysis.Wfcheck.check_spec} need not prove them again. *)

(** {1 Raw declarations} *)

type raw_attr = { a_name : string; a_dom : int; a_cost : Rat.t; a_line : int }

type raw_row = { r_line : int; r_ins : int array; r_outs : int array }

type raw_module = {
  m_line : int;
  m_name : string;
  m_public : Rat.t option;  (** privatization cost when public *)
  m_inputs : string list;
  m_outputs : string list;
  m_rows : raw_row list;  (** file order *)
  m_fn : (string list * int) option;  (** builtin spec and its line *)
}

type raw_gamma = {
  g_line : int;
  g_module : string option;  (** [None] for the workflow default *)
  g_value : int;
}

type raw = {
  r_attrs : raw_attr list;  (** declaration order *)
  r_modules : raw_module list;  (** declaration order *)
  r_gammas : raw_gamma list;  (** file order *)
}

(** {1 Elaborated specs} *)

(** Private, so only {!spec_of_raw} builds one: every spec has passed
    elaboration, which {!Analysis.Wfcheck.check_spec} relies on. *)
type spec = private {
  workflow : Workflow.t;
  costs : (string * Rat.t) list;
  publics : (string * Rat.t) list;  (** public module name, privatization cost *)
  gamma : int;
  gamma_overrides : (string * int) list;
  raw : raw;  (** the declarations the spec was built from, with lines *)
  attr_cost : Rat.t array;  (** workflow attribute id -> hiding cost *)
  mod_gamma : int array;  (** workflow module index -> its gamma *)
  gamma_line : int array;
      (** workflow module index -> the line that set its gamma: its last
          override, else its own declaration *)
  gamma_mod : int array;
      (** gamma directive, in file order -> the workflow index of the
          module it overrides; -1 for the workflow default and for a
          module that was never declared *)
  public_mods : (int * Rat.t) array;
      (** the public modules in declaration order: workflow module
          index, privatization cost *)
}

exception Parse_error of int * string
(** Internal signalling; the [result] API below never lets it escape. *)

val parse_raw_string : string -> (raw, string) result
(** Tokenize and collect declarations. Fails only on syntax-level
    problems (unknown directive, malformed number, missing keyword,
    [row]/[fn] naming a module that was never declared); the error
    string carries a [line N:] prefix. *)

val parse_raw_file : string -> (raw, string) result

val default_gamma : raw -> int
(** The workflow-wide gamma: the last module-less [gamma] directive,
    defaulting to 2. *)

val gamma_overrides_of : raw -> (string * int) list
(** Per-module overrides in reverse file order, so [List.assoc] resolves
    repeated overrides to the last one. *)

val spec_of_raw : raw -> (spec, string) result
(** Enforce the semantic rules (unique declarations, declared
    attributes, no attribute listed twice by one module, row arities,
    builtin use, row values inside their domains, module FDs, unique
    producers, DAG wiring) and build the workflow. Declaration-level
    errors and the two row errors carry a [line N:] prefix:
    [line N: row value V outside domain 0..D of A] and
    [line N: rows at lines M and N give input I of MOD two outputs],
    raised module by module once the declarations are sound. The names
    are interned first, so attributes and modules are numbered on
    symbols; the workflow is assembled from those ids
    ({!Workflow.of_interned}) and the spec keeps costs, gammas and
    publics by workflow id for the instance builder. *)

val parse_string : string -> (spec, string) result
(** [parse_raw_string] followed by [spec_of_raw], without interning the
    names a second time: elaboration reads the scanner's symbols. *)

val parse_file : string -> (spec, string) result
