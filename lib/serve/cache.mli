(** The canonical-form solution cache behind the serve loop.

    Entries are keyed on {!Core.Canon.digest} (rename-invariant, so a
    bijectively renamed resubmission of a solved workflow keys to the
    same slot) and stored in a bounded LRU ({!Svutil.Lru}). A lookup is
    sound by construction, never by trust:

    + compute the request instance's {!Core.Canon.labeling}; its
      canonical form gives the digest key (the form's MD5);
    + an LRU hit whose stored {e form} differs is an MD5 collision
      between non-isomorphic instances — fall back to a real solve
      (the [serve.collisions] counter records it). Isomorphic
      instances have equal forms, so a renamed resubmission never
      lands here;
    + equal forms exhibit an explicit isomorphism:
      {!Core.Canon.transport} carries the stored representative's
      hidden attribute ids into the request's own ids;
    + the transported set is re-verified on the request instance — its
      {!Core.Solution.of_mask} re-closure must satisfy every module at
      the stored cost (the check {!Core.Delta}'s no-op tier runs by
      name). Any failure falls back to a solve.

    Only {e proven} results are stored: optimal solutions
    ([proven_optimal]) and proven infeasibility (no solution, no budget
    hit, from a method that proves rather than approximates). And only
    proving requests participate at all: {!cacheable} is false for the
    greedy/rounding methods, whose results depend on seeds and trial
    counts — serving those from a cache would not be a no-drift
    transformation.

    Counters [serve.{hits,misses,evictions,collisions,verify_failures}]
    are recorded in the registry passed at {!create}. Not thread-safe;
    the single-threaded serve loop owns its cache. *)

type t

val create :
  ?key:(Core.Instance.t -> string) ->
  ?metrics:Svutil.Metrics.t ->
  capacity:int ->
  unit ->
  t
(** [?key] overrides the digest as the LRU key — only for tests, which
    use a constant key to force the digest-collision path.
    @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int
val length : t -> int
val hits : t -> int
val misses : t -> int

val evictions : t -> int
(** Entries dropped by capacity pressure. *)

val cacheable : Core.Engine.request -> bool
(** Whether this request participates in the cache at all: true for
    [Auto], [Exact] and [Brute] — the methods whose answers are
    canonical (optimum or proven-infeasible), not seed-dependent. *)

val find : t -> Core.Engine.request -> Core.Engine.result option
(** The verified lookup described above. [Some r] carries the
    transported solution, [proven_optimal = true] (or the stored
    infeasibility), the stored lower bound, and a fresh
    [solved_state] for the request instance. [None] on any miss,
    collision, or verification failure. Does not check {!cacheable} —
    callers gate on it first. *)

val store : t -> Core.Engine.request -> Core.Engine.result -> unit
(** Store a result if it is proven (see above); otherwise a no-op.
    Does not check {!cacheable} — callers gate on it first. *)

type status = Hit | Miss | Bypass

val status_to_string : status -> string
(** ["hit"], ["miss"], ["bypass"]: the protocol's ["cache"] field. *)

val solve :
  ?use_cache:bool ->
  t ->
  Core.Engine.request ->
  Core.Engine.result * status
(** The request path every cache user shares: when [use_cache]
    (default [true]) and the request is {!cacheable}, {!find}; on a
    miss, {!Core.Engine.run} and offer the result to {!store}. A hit or
    miss result carries a leading [("cache", "hit"|"miss")] stat; a
    [Bypass] (caching off, or a non-cacheable method) adds none and
    touches neither the cache nor its counters. The lookup, solve and
    store run in [serve/lookup], [serve/solve] and [serve/store] spans
    on the cache's registry. *)
