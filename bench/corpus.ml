(* A seeded, deterministic corpus of paper-shaped Secure-View instances
   (ROADMAP item 4). Five topology families — deep chains, wide
   fan-outs, map-reduce diamonds, the genomics split/process/join
   workflow scaled in blocks, and the random meshes of
   [Gen_instances.wire] — crossed with size, constraint-form and
   public-fraction axes. The corpus measures every solver on every
   instance ([run]), and perfbench draws its request pools from the
   same families.

   Determinism contract: [generate ~seed] derives one RNG per instance
   from a stable string hash of the corpus seed and the instance id, so
   the generated set is byte-identical across runs, machines and OCaml
   versions. [run] rows are likewise deterministic except for the
   [r_time_ms] field, which [rows_to_json ~times:false] redacts. *)

module I = Core.Instance
module Req = Core.Requirement
module E = Core.Engine
module Rng = Svutil.Rng
module Lx = Svutil.Listx
module J = Svutil.Json

(* Deterministic 31-bit string hash (djb2). OCaml's [Hashtbl.hash] is
   not specified to be stable across compiler versions, and per-instance
   seeds must agree on both CI compilers. *)
let hash31 s =
  String.fold_left (fun h c -> ((h * 33) + Char.code c) land 0x3FFFFFFF) 5381 s

(* {1 Topology families}

   A wiring is the module graph before costs and requirements:
   [(name, inputs, outputs)] per module, attributes named by the
   generator. Every family takes its RNG so replicas differ. *)

let chain rng ~n =
  let c = ref 0 in
  let fresh () =
    incr c;
    Printf.sprintf "a%d" !c
  in
  let x0 = fresh () in
  let rec go i prev acc =
    if i > n then List.rev acc
    else
      let outs = List.init (1 + Rng.int rng 2) (fun _ -> fresh ()) in
      go (i + 1) outs ((Printf.sprintf "m%d" i, prev, outs) :: acc)
  in
  go 1 [ x0 ] []

(* One hub attribute read by every downstream module: fan-out = width. *)
let fanout rng ~width =
  let c = ref 0 in
  let fresh () =
    incr c;
    Printf.sprintf "a%d" !c
  in
  let x0 = fresh () in
  let hub = fresh () in
  let spare = fresh () in
  let root = ("m0", [ x0 ], [ hub; spare ]) in
  let consumers =
    List.init width (fun i ->
        let ins = if i = 0 then [ hub; spare ] else [ hub ] in
        let outs = List.init (1 + Rng.int rng 2) (fun _ -> fresh ()) in
        (Printf.sprintf "m%d" (i + 1), ins, outs))
  in
  root :: consumers

(* Map-reduce: one source scatters to [maps] mappers, one reducer
   gathers every mapper output. *)
let diamond rng ~maps =
  let c = ref 0 in
  let fresh () =
    incr c;
    Printf.sprintf "a%d" !c
  in
  let x0 = fresh () in
  let splits = List.init maps (fun _ -> fresh ()) in
  let src = ("src", [ x0 ], splits) in
  let mappers =
    List.mapi
      (fun i s ->
        let outs = List.init (1 + Rng.int rng 2) (fun _ -> fresh ()) in
        (Printf.sprintf "map%d" (i + 1), [ s ], outs))
      splits
  in
  let gathered = List.concat_map (fun (_, _, o) -> o) mappers in
  let red = ("reduce", gathered, [ fresh () ]) in
  (src :: mappers) @ [ red ]

(* The paper's genomics workflow shape, repeated: split into two lanes,
   process each, join — [blocks] times in sequence. *)
let genomics ~blocks =
  let c = ref 0 in
  let fresh () =
    incr c;
    Printf.sprintf "a%d" !c
  in
  let x0 = fresh () in
  let rec go b cur acc =
    if b > blocks then List.rev acc
    else
      let l = fresh () and r = fresh () in
      let l' = fresh () and r' = fresh () in
      let out = fresh () in
      let ms =
        [
          (Printf.sprintf "split%d" b, [ cur ], [ l; r ]);
          (Printf.sprintf "proc%dl" b, [ l ], [ l' ]);
          (Printf.sprintf "proc%dr" b, [ r ], [ r' ]);
          (Printf.sprintf "join%d" b, [ l'; r' ], [ out ]);
        ]
      in
      go (b + 1) out (List.rev_append ms acc)
  in
  go 1 x0 []

let mesh rng ~n =
  let shape =
    {
      Gen_instances.n_modules = n;
      max_inputs = 3;
      max_outputs = 2;
      sharing = 2;
      max_cost = 10;
    }
  in
  fst (Gen_instances.wire rng shape)

(* {1 Axes} *)

type form = Card_form | Sets_form of int | Mixed_form
(** [Mixed_form] draws each module's requirement form independently, so
    [card_frac] lands strictly between 0 and 1 — the corpus must cover
    the [Round_card]-to-[Round_set] clamp region. *)

let form_label = function
  | Card_form -> "card"
  | Sets_form l -> Printf.sprintf "sets%d" l
  | Mixed_form -> "mix"

type size = Small | Medium | Large

let size_label = function Small -> "s" | Medium -> "m" | Large -> "l"
let families = [ "chain"; "fanout"; "diamond"; "genomics"; "mesh" ]

let wiring_of rng family size =
  let pick s m l = match size with Small -> s | Medium -> m | Large -> l in
  match family with
  | "chain" -> chain rng ~n:(pick 3 6 12)
  | "fanout" -> fanout rng ~width:(pick 3 6 12)
  | "diamond" -> diamond rng ~maps:(pick 2 4 8)
  | "genomics" -> genomics ~blocks:(pick 1 2 3)
  | "mesh" -> mesh rng ~n:(pick 3 5 8)
  | f -> invalid_arg ("Corpus.wiring_of: unknown family " ^ f)

(* {1 Requirements, costs, publics} *)

let rec requirement rng form ins outs =
  match form with
  | Card_form ->
      (* Cardinalities are capped at hiding 3 inputs / 2 outputs: the
         set-form solvers expand a [Card (a, b)] pair over [ni] inputs
         into [C(ni, a)] explicit options, and the diamond reducers
         gather up to 16 inputs — an uncapped draw made single corpus
         cells take minutes. Hiding a few attributes per module is also
         the paper's regime. *)
      let ni = List.length ins and no = List.length outs in
      let n_opts = 1 + Rng.int rng 3 in
      let pairs =
        List.init n_opts (fun _ ->
            let a = Rng.int rng (min ni 3 + 1)
            and b = Rng.int rng (min no 2 + 1) in
            if a = 0 && b = 0 then (1, 0) else (a, b))
      in
      Req.Card (Req.normalize_card pairs)
  | Sets_form lmax ->
      let pool = ins @ outs in
      let option () =
        let size = 1 + Rng.int rng (min 3 (List.length pool)) in
        let chosen = Rng.sample rng size pool in
        (Lx.inter chosen ins, Lx.inter chosen outs)
      in
      Req.Sets (Req.normalize_sets (List.init lmax (fun _ -> option ())))
  | Mixed_form ->
      requirement rng (if Rng.bool rng then Card_form else Sets_form 2) ins outs

(* Module 0 always stays private so every instance has a requirement to
   satisfy; the rest go public with probability [public_frac]. *)
let build rng ~form ~public_frac wiring =
  let attrs = Lx.dedup (List.concat_map (fun (_, i, o) -> i @ o) wiring) in
  let attr_costs =
    List.map (fun a -> (a, Rat.of_int (1 + Rng.int rng 9))) attrs
  in
  let tagged =
    List.mapi (fun i m -> (i > 0 && Rng.float rng < public_frac, m)) wiring
  in
  let mods =
    List.filter_map
      (fun (pub, (name, ins, outs)) ->
        if pub then None
        else
          Some
            {
              I.m_name = name;
              inputs = ins;
              outputs = outs;
              req = requirement rng form ins outs;
            })
      tagged
  in
  let publics =
    List.filter_map
      (fun (pub, (name, ins, outs)) ->
        if not pub then None
        else
          Some
            {
              I.p_name = name;
              p_cost = Rat.of_int (1 + Rng.int rng 9);
              p_attrs = Lx.dedup (ins @ outs);
            })
      tagged
  in
  I.make ~attr_costs ~mods ~publics ()

(* {1 Generation} *)

type inst_rec = {
  id : string;
  family : string;
  seed : int;  (** the derived per-instance seed, for re-generation *)
  inst : I.t;
}

let forms = [ Card_form; Sets_form 3; Mixed_form ]
let public_fracs = [ (0.0, "p0"); (0.3, "p30") ]

let generate ?(smoke = false) ~seed () =
  let sizes = if smoke then [ Small; Medium ] else [ Small; Medium; Large ] in
  let replicas = if smoke then 1 else 4 in
  List.concat_map
    (fun family ->
      List.concat_map
        (fun size ->
          List.concat_map
            (fun form ->
              List.concat_map
                (fun (pf, pl) ->
                  List.map
                    (fun rep ->
                      let id =
                        Printf.sprintf "%s-%s-%s-%s-r%d" family
                          (size_label size) (form_label form) pl rep
                      in
                      let iseed = hash31 (Printf.sprintf "%d|%s" seed id) in
                      let rng = Rng.create iseed in
                      let wiring = wiring_of rng family size in
                      let inst = build rng ~form ~public_frac:pf wiring in
                      { id; family; seed = iseed; inst })
                    (List.init replicas (fun r -> r)))
                public_fracs)
            forms)
        sizes)
    families

(* {1 The runner} *)

type row = {
  r_id : string;
  r_family : string;
  r_method : string;  (** {!E.meth_to_string} of the solver that ran *)
  r_cost : Rat.t option;  (** [None]: infeasible, refused, or skipped *)
  r_proven : bool;
  r_refused : bool;
  r_time_ms : float;
}

(* Brute enumeration is exponential in the attribute count: above this
   cap a single measurement would take minutes, so the runner records
   an unmeasured refusal row instead of running it. [Engine.choose]
   keeps [Auto] off brute above 4 attributes, far below this cap. *)
let brute_measure_cap = 14

let skipped_row ir m =
  {
    r_id = ir.id;
    r_family = ir.family;
    r_method = E.meth_to_string m;
    r_cost = None;
    r_proven = false;
    r_refused = true;
    r_time_ms = 0.;
  }

let run recs =
  List.concat_map
    (fun ir ->
      List.map
        (fun m ->
          if m = E.Brute && List.length (I.attr_costs ir.inst) > brute_measure_cap
          then skipped_row ir m
          else begin
            let req = { (E.default_request ir.inst) with E.meth = m } in
            let t0 = Svutil.Deadline.now_ms () in
            let res = E.run req in
            let t1 = Svutil.Deadline.now_ms () in
            {
              r_id = ir.id;
              r_family = ir.family;
              r_method = E.meth_to_string m;
              r_cost =
                Option.map
                  (fun (s : Core.Solution.t) -> s.Core.Solution.cost)
                  res.E.solution;
              r_proven = res.E.proven_optimal;
              r_refused = List.mem_assoc "refused" res.E.stats;
              r_time_ms = t1 -. t0;
            }
          end)
        E.methods)
    recs

(* {1 JSON} *)

let strs l = J.Arr (List.map (fun s -> J.Str s) l)

let row_to_json ?(times = true) r =
  J.Obj
    ([
       ("id", J.Str r.r_id);
       ("family", J.Str r.r_family);
       ("method", J.Str r.r_method);
       ( "cost",
         match r.r_cost with
         | Some c -> J.Str (Rat.to_string c)
         | None -> J.Null );
       ("proven", J.Bool r.r_proven);
       ("refused", J.Bool r.r_refused);
     ]
    @ if times then [ ("time_ms", J.Num r.r_time_ms) ] else [])

let rows_to_json ?(times = true) ~seed rows =
  J.Obj
    [
      ("corpus_seed", J.Num (float_of_int seed));
      ("rows", J.Arr (List.map (row_to_json ~times) rows));
    ]

(* Instance serialization — for the [corpus --list] dump and the
   byte-identity determinism tests; there is deliberately no parser. *)

let req_to_json = function
  | Req.Card pairs ->
      J.Obj
        [
          ( "card",
            J.Arr
              (List.map
                 (fun (a, b) ->
                   J.Arr [ J.Num (float_of_int a); J.Num (float_of_int b) ])
                 pairs) );
        ]
  | Req.Sets opts ->
      J.Obj
        [
          ( "sets",
            J.Arr
              (List.map
                 (fun (ins, outs) ->
                   J.Obj [ ("hide_in", strs ins); ("hide_out", strs outs) ])
                 opts) );
        ]

let instance_to_json (inst : I.t) =
  J.Obj
    [
      ( "attr_costs",
        J.Arr
          (List.map
             (fun (a, c) -> J.Arr [ J.Str a; J.Str (Rat.to_string c) ])
             (I.attr_costs inst)) );
      ( "mods",
        J.Arr
          (List.map
             (fun (m : I.module_req) ->
               J.Obj
                 [
                   ("name", J.Str m.I.m_name);
                   ("inputs", strs m.I.inputs);
                   ("outputs", strs m.I.outputs);
                   ("req", req_to_json m.I.req);
                 ])
             (I.mods inst)) );
      ( "publics",
        J.Arr
          (List.map
             (fun (p : I.public_mod) ->
               J.Obj
                 [
                   ("name", J.Str p.I.p_name);
                   ("cost", J.Str (Rat.to_string p.I.p_cost));
                   ("attrs", strs p.I.p_attrs);
                 ])
             (I.publics inst)) );
    ]

let inst_rec_to_json ir =
  J.Obj
    [
      ("id", J.Str ir.id);
      ("family", J.Str ir.family);
      ("seed", J.Num (float_of_int ir.seed));
      ("instance", instance_to_json ir.inst);
    ]

let instances_to_json ~seed recs =
  J.Obj
    [
      ("corpus_seed", J.Num (float_of_int seed));
      ("instances", J.Arr (List.map inst_rec_to_json recs));
    ]
