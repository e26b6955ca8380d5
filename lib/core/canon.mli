(** Canonical forms and rename-invariant digests of Secure-View
    instances.

    Renaming attributes and modules preserves optima (the metamorphic
    test suite checks it); this module turns that fact into a usable
    key. An instance is an incidence graph: attributes, private modules,
    one vertex per option of a set-form requirement, and public modules,
    with edges labelled by role (input, output, hidden input, hidden
    output, membership). Initial colours are ranks of the name-free
    payload — attribute cost, requirement shape, privatization cost —
    and integer partition refinement splits them to an equitable
    partition over int adjacency arrays. Names never reach a colour.

    Ties that refinement leaves among attributes are resolved by
    individualization–refinement, as in nauty and bliss: each member of
    the first open attribute cell is given its own cell in turn, the
    partition is refined again, and the search recurses until every
    attribute has its own cell. Each such leaf orders the attributes;
    its certificate is the whole instance relabelled in that order. The
    canonical leaf is the one with the minimal certificate, so
    isomorphic instances get exactly equal forms, whatever their names
    and declaration order. Three devices keep the search small:

    - {e twin split}: a cell of pairwise twins — attributes whose swap
      is an automorphism (same cost, same module and public roles, set
      options unchanged by the swap) — is split into singletons without
      branching, since every order gives the same form;
    - {e orbit pruning}: two leaves with equal certificates exhibit an
      automorphism; a sibling in the orbit of an explored child, under
      the automorphisms found so far that fix the node, is skipped, and
      the search returns straight to the node where the two equal
      leaves' paths part;
    - {e leaf budget}: every leaf counts, and once a fixed number of
      leaves is reached the search stops and falls back to its first
      leaf. That labeling is still a valid relabeling, so form equality
      still proves isomorphism; only the guarantee that isomorphic
      instances agree is lost, and {!cut} reports it.

    Two artifacts are derived from the canonical labeling:

    - {!form}: the canonical serialization. Equal forms exhibit an
      explicit attribute bijection making the instances textually
      identical, so [form] equality {e proves} isomorphism (and hence
      equal optima), and isomorphic instances have equal forms (unless
      {!cut}). [Core.Delta] uses it to detect no-op edits;
    - {!digest}: the MD5 of the form, a cache key. Isomorphic instances
      always agree; unequal instances collide only with MD5
      probability. *)

val digest : Instance.t -> string
(** Rename-invariant instance key: the MD5 hex digest of {!form}. *)

val form : Instance.t -> string
(** Canonical serialization. [form a = form b] iff [a] and [b] are
    isomorphic, when neither labeling was {!cut}. *)

val equal : Instance.t -> Instance.t -> bool
(** [form] equality: a sound isomorphism check, and a complete one
    unless a labeling is {!cut}. *)

(** {1 Solution transport}

    When two instances have equal forms, the canonical relabeling of
    each exhibits an explicit isomorphism between them; composing one
    relabeling with the inverse of the other carries a hidden set of one
    instance to a hidden set of the other with identical cost. The
    serve cache stores a solved representative's {!labeling} and
    transports its hidden attributes to each later isomorphic request;
    the privatizations follow from the hidden set (Theorem 8's rule),
    so {!Solution.of_ids} closes the result. *)

type labeling
(** The canonical relabeling of one instance: its {!form} plus the
    attribute bijection (id {%html:&harr;%} canonical label). *)

val labeling : Instance.t -> labeling

val form_of_labeling : labeling -> string
(** The {!form} the labeling serializes to — same string as
    [form inst]. *)

val digest_of_labeling : labeling -> string
(** The {!digest} of the labeled instance — same string as
    [digest inst], hashed from the labeling's form, so a cache can key
    on the digest and compare forms with one labeling per request. *)

val cut : labeling -> bool
(** Whether the leaf budget cut the search short. The labeling is then
    sound but possibly not canonical: an isomorphic instance may get a
    different form. *)

val transport : src:labeling -> dst:labeling -> int list -> int list option
(** [transport ~src ~dst ids] maps attribute ids of [src]'s instance to
    the corresponding ids of [dst]'s through the canonical isomorphism;
    [None] when the forms differ (no isomorphism exhibited). A hidden
    set maps to one of the same cost, feasible iff the original is;
    callers re-verify cheaply with a {!Solution.of_ids} re-closure. *)

val fingerprint : Instance.t -> string
(** A cheap necessary condition for isomorphism: sorted name-free
    summaries (attribute costs, module arities and requirement shapes,
    public costs) with no refinement or hashing. Isomorphic instances
    always agree; unequal fingerprints refute isomorphism in
    [O(n log n)]. {!Delta.resolve} checks it before paying for {!form},
    so the common obviously-changed edit skips the labeling. *)
