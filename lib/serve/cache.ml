(* The canonical-form solution cache. Soundness is structural: a hit is
   served only after (1) form equality (a proof of isomorphism, closing
   the MD5-collision hole in the digest key), (2) explicit transport of
   the hidden attribute ids through the canonical relabelings, and (3)
   a re-closure check of the transported set on the request's own
   instance. *)

module Metrics = Svutil.Metrics
module Lru = Svutil.Lru

type entry = {
  e_labeling : Core.Canon.labeling;
  e_solution : Core.Solution.t option;  (* None = proven infeasible *)
  e_hidden : int list;  (* the solution's hidden attributes, as ids *)
  e_lower_bound : Rat.t option;
  e_method : Core.Engine.meth;
}

type t = {
  lru : entry Lru.t;
  metrics : Metrics.t;
  key : (Core.Instance.t -> string) option;
  (* One labeling per request: [find] computes it, and the [store] that
     follows a miss reuses it (matched by physical identity of the
     instance). *)
  mutable last : (Core.Instance.t * string * Core.Canon.labeling) option;
  mutable hits : int;
  mutable misses : int;
}

let create ?key ?(metrics = Metrics.nop) ~capacity () =
  { lru = Lru.create capacity; metrics; key; last = None; hits = 0; misses = 0 }

let capacity t = Lru.capacity t.lru
let length t = Lru.length t.lru
let hits t = t.hits
let misses t = t.misses
let evictions t = Lru.evictions t.lru

let cacheable (req : Core.Engine.request) =
  match req.Core.Engine.meth with
  | Core.Engine.Auto | Core.Engine.Exact | Core.Engine.Brute -> true
  | Core.Engine.Greedy | Core.Engine.Round_card | Core.Engine.Round_set ->
      false

let labeled t inst =
  match t.last with
  | Some (i, k, l) when i == inst -> (k, l)
  | _ ->
      let l = Core.Canon.labeling inst in
      let k =
        match t.key with
        | Some f -> f inst
        | None -> Core.Canon.digest_of_labeling l
      in
      t.last <- Some (inst, k, l);
      (k, l)

let miss t =
  t.misses <- t.misses + 1;
  Metrics.tick t.metrics "serve.misses";
  None

let hit t r =
  t.hits <- t.hits + 1;
  Metrics.tick t.metrics "serve.hits";
  Some r

let result_of (req : Core.Engine.request) lab e solution stats =
  let proven_optimal = Option.is_some solution in
  {
    Core.Engine.solution;
    lower_bound = e.e_lower_bound;
    proven_optimal;
    ratio = Core.Engine.ratio ~proven_optimal solution e.e_lower_bound;
    timings = [];
    stats;
    method_used = e.e_method;
    metrics = req.Core.Engine.metrics;
    state =
      Some
        {
          Core.Engine.solved_inst = req.Core.Engine.inst;
          canon = lazy (Core.Canon.form_of_labeling lab);
        };
  }

let find t (req : Core.Engine.request) =
  let inst = req.Core.Engine.inst in
  let key, lab = labeled t inst in
  match Lru.find t.lru key with
  | None -> miss t
  | Some e ->
      if
        not
          (String.equal
             (Core.Canon.form_of_labeling e.e_labeling)
             (Core.Canon.form_of_labeling lab))
      then begin
        (* Equal digests of unequal forms: an MD5 collision between
           non-isomorphic instances, so not servable. *)
        Metrics.tick t.metrics "serve.collisions";
        miss t
      end
      else begin
        match e.e_solution with
        | None ->
            (* Isomorphic to a proven-infeasible instance: infeasibility
               transports with no solution to verify. *)
            hit t (result_of req lab e None [ ("infeasible", "true") ])
        | Some s -> (
            match Core.Canon.transport ~src:e.e_labeling ~dst:lab e.e_hidden with
            | None -> miss t
            | Some ids ->
                (* The re-closure, on ids: privatize what the hidden set
                   exposes, then every module must be satisfied at the
                   stored cost. *)
                let hidden = Array.make (Core.Instance.n_attrs inst) false in
                List.iter (fun i -> hidden.(i) <- true) ids;
                let closed = Core.Solution.of_mask inst hidden in
                if
                  Core.Instance.all_satisfied inst hidden
                  && Rat.equal closed.Core.Solution.cost s.Core.Solution.cost
                then hit t (result_of req lab e (Some closed) [])
                else begin
                  Metrics.tick t.metrics "serve.verify_failures";
                  miss t
                end)
      end

let stat_true (r : Core.Engine.result) k =
  List.assoc_opt k r.Core.Engine.stats = Some "true"

(* Proven results only. A solution must be proven optimal; an absent
   solution must be proven infeasibility — flagged as such by a proving
   method, with no budget hit and no refusal. *)
let storable (r : Core.Engine.result) =
  match r.Core.Engine.solution with
  | Some _ -> r.Core.Engine.proven_optimal
  | None ->
      stat_true r "infeasible"
      && (match r.Core.Engine.method_used with
         | Core.Engine.Exact | Core.Engine.Brute -> true
         | _ -> false)
      && (not (stat_true r "limit_hit"))
      && (not (stat_true r "deadline_hit"))
      && List.assoc_opt "refused" r.Core.Engine.stats = None

let store t (req : Core.Engine.request) (r : Core.Engine.result) =
  if storable r then begin
    let inst = req.Core.Engine.inst in
    let key, lab = labeled t inst in
    let before = Lru.evictions t.lru in
    (* A name the instance lacks cannot occur; were it dropped here, the
       hit's re-closure would miss the stored cost and refuse the hit. *)
    let e_hidden =
      match r.Core.Engine.solution with
      | None -> []
      | Some s -> List.filter_map (Core.Instance.find inst) s.Core.Solution.hidden
    in
    Lru.add t.lru key
      {
        e_labeling = lab;
        e_solution = r.Core.Engine.solution;
        e_hidden;
        e_lower_bound = r.Core.Engine.lower_bound;
        e_method = r.Core.Engine.method_used;
      };
    let evicted = Lru.evictions t.lru - before in
    if evicted > 0 then Metrics.count t.metrics "serve.evictions" evicted
  end

type status = Hit | Miss | Bypass

let status_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

let solve ?(use_cache = true) t (req : Core.Engine.request) =
  let use_cache = use_cache && cacheable req in
  let cached =
    if use_cache then Metrics.span t.metrics "serve/lookup" (fun () -> find t req)
    else None
  in
  let tagged status (r : Core.Engine.result) =
    ( {
        r with
        Core.Engine.stats =
          ("cache", status_to_string status) :: r.Core.Engine.stats;
      },
      status )
  in
  match cached with
  | Some r -> tagged Hit r
  | None ->
      let r =
        Metrics.span t.metrics "serve/solve" (fun () -> Core.Engine.run req)
      in
      if use_cache then begin
        Metrics.span t.metrics "serve/store" (fun () -> store t req r);
        tagged Miss r
      end
      else (r, Bypass)
