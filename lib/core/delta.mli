(** Incremental re-solve for edited Secure-View instances.

    The workflow-editor / CI-recheck workload (the sequel paper's
    propagation model, arXiv:1212.2251) solves the same instance over
    and over with small edits. {!resolve} takes a solved
    {!Engine.result} (whose {!Engine.solved_state} capture carries the
    instance and its canonical form) plus a typed edit {!script}, and
    returns a result provably equal in optimum to a from-scratch solve
    of the edited instance — usually much faster, via three reuse
    tiers:

    - {e no-op}: if the edited instance is canonically equal to the
      parent's ({!Canon.form}) and the parent solution re-closes at the
      same cost, the parent answer is returned outright;
    - {e scoped}: the edit's {e dirty set} — the coupling-closure of
      the touched attributes over both the old and new wiring — is
      re-solved as a sub-instance and stitched onto the parent's
      untouched (clean) side. Sound because the Secure-View objective
      and constraints decompose additively over coupling components:
      requirements are per-module, costs per-attribute, and public
      modules couple exactly their adjacent attributes, so clean
      components inherit the parent's (optimal) restriction verbatim;
    - {e full fallback}: when the closure covers the instance or the
      parent result is unproven/infeasible, the edited instance is
      solved from scratch.

    Each sub-solve is a plain {!Engine.run} of its instance: the parent
    solution seeds no search, since the exact route's hull program
    usually has an integral root LP and a seed would prune almost
    nothing.

    Metrics (under the caller's registry): [delta.noop],
    [delta.dirty_attrs], [delta.full_fallbacks], and phase spans
    [delta/apply], [delta/canon], [delta/dirty], [delta/subsolve]. *)

(** One edit. Attribute names referenced by wiring edits must already
    exist — declare fresh attributes first with [Add_attr]. *)
type edit =
  | Add_attr of { attr : string; cost : Rat.t }
      (** declare a new attribute with its hiding cost *)
  | Set_cost of { attr : string; cost : Rat.t }
  | Set_requirement of { m_name : string; req : Requirement.t }
      (** change a private module's hiding requirement *)
  | Rewire of {
      m_name : string;
      inputs : string list;
      outputs : string list;
      req : Requirement.t option;  (** [None] keeps the old requirement *)
    }
  | Add_module of {
      m_name : string;
      inputs : string list;
      outputs : string list;
      req : Requirement.t;
    }
  | Drop_module of { name : string }
      (** drop a private or public module; its attributes remain *)

type script = edit list

val apply :
  Instance.t -> script -> (Instance.t * string list, string) result
(** Fold the script over the instance. [Ok (edited, touched)] also
    reports the attributes an edit directly mentioned (before closure);
    [Error] on unknown names, collisions, or anything {!Instance.make}
    rejects. *)

val parse_script : string -> (script, string) result
(** Parse the textual edit-script format (one edit per line, [#]
    comments, attribute lists comma-separated with [-] for empty):
    {v
    attr NAME COST
    cost NAME COST
    req MODULE card A:B [A:B ...]
    req MODULE sets INS:OUTS [INS:OUTS ...]
    rewire MODULE inputs LIST outputs LIST [card ...|sets ...]
    add MODULE inputs LIST outputs LIST card ...|sets ...
    drop NAME
    v} *)

val wiring_closures :
  (string list * string list) list ->
  (string -> string list) * (string -> string list)
(** [(upstream, downstream)] transitive dependency closures over a
    wiring given as per-module [(inputs, outputs)] pairs in topological
    order — the generic engine behind [Analysis.Flow.closures], kept
    here so the core needs no dependency on the analysis layer. *)

val component : groups:string list list -> seeds:string list -> string list
(** Least fixpoint of "grow [seeds] by every group it intersects":
    the union of the connected components of the coupling graph whose
    edges are cliques over each group. Sorted. *)

val dirty_closure :
  base:Instance.t -> edited:Instance.t -> touched:string list -> string list
(** {!component} over the union of both instances' coupling groups
    (module input/output sets and public attribute sets), seeded with
    the touched attributes: everything whose optimal treatment the edit
    could possibly influence. *)

(** Which reuse tier {!resolve} took. *)
type reuse =
  | Noop  (** canonically unchanged; parent answer returned *)
  | Scoped of { dirty : int; total : int }
      (** re-solved [dirty] of [total] attributes, clean side reused *)
  | Full  (** from-scratch solve of the edited instance *)

type outcome = {
  edited : Instance.t;
  result : Engine.result;
      (** carries its own {!Engine.solved_state}, so edits chain *)
  reuse : reuse;
  touched : string list;
  dirty : string list;  (** dirty attributes of the edited instance *)
}

val resolve :
  ?node_limit:int ->
  ?metrics:Svutil.Metrics.t ->
  parent:Engine.result ->
  script ->
  (outcome, string) result
(** Re-solve the parent's instance under [script]. [Error] when the
    parent carries no solved-state capture or the script does not
    apply. The returned result's optimum provably equals a from-scratch
    {!Engine.run} of the edited instance (differentially tested);
    [proven_optimal] is only claimed when both the parent's and the
    sub-solve's certificates hold. *)
