(** Lightweight metrics registry: named counters, histograms, and
    nested timing spans.

    A registry is either {e live} (created by {!create}) or the shared
    {e nop} sink {!nop}.  Every operation on {!nop} is a constant-time
    no-op — no clock reads, no hash lookups, no allocation — so
    instrumented code can thread a registry unconditionally and pay
    nothing when metrics are disabled (the default everywhere).

    Counters and histograms are looked up once and then updated through
    handles, keeping hot loops free of string hashing.  The recommended
    pattern for very hot loops is to accumulate into a local [int ref]
    and flush once per call with {!count}.

    A registry is {b not} thread-safe.  Parallel code ({!Par}, as in the
    CLI's [batch --jobs]) must give each worker its own registry and
    combine them afterwards with {!merge} or {!absorb}; merging is
    associative and commutative with the empty registry as identity.

    Naming scheme (see DESIGN.md §10): counters are
    [<layer>.<quantity>] (e.g. [simplex.pivots], [ilp.nodes],
    [worlds.enumerated]); span paths are slash-joined nesting chains
    (e.g. [solve/lp]).  Names must not contain ["/"] except as the span
    nesting separator, and must not contain ["\""] or ["\\"]. *)

type t
(** A metrics registry (live or nop). *)

val nop : t
(** The shared disabled registry.  All updates are dropped; queries
    report an empty registry. *)

val create : unit -> t
(** A fresh live, empty registry. *)

val enabled : t -> bool
(** [true] exactly for live registries. *)

(** {1 Counters} *)

type counter
(** A handle to a named monotone integer counter. *)

val counter : t -> string -> counter
(** [counter t name] is the handle for [name], created at 0 on first
    use.  On {!nop} this returns a shared dummy handle. *)

val incr : counter -> unit
(** Add 1 (no-op on a dummy handle). *)

val add : counter -> int -> unit
(** Add [n] (no-op on a dummy handle). *)

val tick : t -> string -> unit
(** [tick t name] is [add (counter t name) 1] — convenience for cold
    call sites. *)

val count : t -> string -> int -> unit
(** [count t name n] is [add (counter t name) n]. *)

val counter_value : t -> string -> int
(** Current value, 0 when absent (always 0 on {!nop}). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

(** {1 Histograms} *)

type histogram
(** A handle to a named summary histogram (count/sum/min/max — no
    buckets, so merging loses no information). *)

type histo_stats = { hcount : int; hsum : float; hmin : float; hmax : float }

val histogram : t -> string -> histogram
(** Handle for a named histogram, empty on first use. *)

val observe : histogram -> float -> unit
(** Record one observation (no-op on a dummy handle). *)

val observe_in : t -> string -> float -> unit
(** [observe_in t name x] is [observe (histogram t name) x]. *)

val histo_stats : t -> string -> histo_stats option
(** Summary of a histogram, [None] when absent or never observed. *)

val histograms : t -> (string * histo_stats) list
(** All non-empty histograms, sorted by name. *)

(** {1 Spans} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t label f] runs [f ()] inside a timing span.  On a live
    registry the elapsed wall-clock time is recorded under the
    slash-joined path of enclosing span labels (exception-safe: the
    span is closed and recorded even if [f] raises).  On {!nop} this is
    exactly [f ()] — no clock read. *)

val timed : t -> string -> (unit -> 'a) -> 'a * float
(** Like {!span} but always measures, returning [(f (), elapsed_ms)]
    even on {!nop} (where nothing is recorded).  This lets callers keep
    a single clock-read pair as the source for both their own timing
    report and the registry. *)

val record_span : t -> string -> float -> unit
(** [record_span t path ms] records one completed span sample directly
    under [path].  Used for replaying merged data and by tests; prefer
    {!span} in instrumented code. *)

val span_stats : t -> string -> (int * float) option
(** [(count, total_ms)] for a span path, [None] when absent. *)

val spans : t -> (string * (int * float)) list
(** All spans as [(path, (count, total_ms))], sorted by path. *)

(** {1 Combining} *)

val absorb : t -> t -> unit
(** [absorb dst src] adds every counter, histogram, and span of [src]
    into [dst] in place.  No-op when [dst] is {!nop}; a {!nop} [src]
    contributes nothing. *)

val merge : t -> t -> t
(** [merge a b] is a fresh registry holding the pointwise combination:
    counters and span stats sum, histogram summaries combine.
    Associative and commutative; the empty registry is an identity (up
    to {!equal}).  Returns {!nop} when both arguments are nop. *)

val equal : t -> t -> bool
(** Structural equality of contents (counters, histograms, spans);
    ignores whether the registries are live. *)

val is_empty : t -> bool
(** [true] when the registry records nothing. *)

(** {1 JSON} *)

val to_json : t -> string
(** One-line JSON object
    [{"counters":{...},"histograms":{...},"spans":{...}}] with keys
    sorted; floats are printed with enough digits to round-trip
    exactly. *)

val of_json : string -> (t, string) result
(** Parse the output of {!to_json} back into a live registry.
    [of_json (to_json t)] is {!equal} to [t]. *)
