(* Random abstract Secure-View instances for the approximation
   experiments (E05-E07, E17). Unlike Wf.Gen these do not materialize
   module tables: the experiments of Theorems 5-7 operate on requirement
   lists directly, which lets the sweeps reach more modules. *)

module I = Core.Instance
module Req = Core.Requirement
module Rng = Svutil.Rng

type shape = {
  n_modules : int;
  max_inputs : int;
  max_outputs : int;
  sharing : int;  (** bound on consumers per attribute *)
  max_cost : int;
}

let default_shape =
  { n_modules = 4; max_inputs = 3; max_outputs = 2; sharing = 2; max_cost = 10 }

(* Wiring: each module consumes available attributes (respecting the
   sharing bound) and produces fresh ones, like Wf.Gen but abstract. *)
let wire rng shape =
  let fresh_count = ref 0 in
  let fresh () =
    incr fresh_count;
    Printf.sprintf "d%d" !fresh_count
  in
  let available = ref [] in
  let take () =
    match !available with
    | [] -> None
    | pool ->
        let a, budget = Rng.pick rng pool in
        decr budget;
        if !budget <= 0 then available := List.filter (fun (a', _) -> a' <> a) pool;
        Some a
  in
  let mods =
    List.map
      (fun i ->
        let n_in = 1 + Rng.int rng shape.max_inputs in
        let n_out = 1 + Rng.int rng shape.max_outputs in
        let rec inputs n acc =
          if n = 0 then acc
          else
            let choice =
              if Rng.float rng < 0.35 then fresh ()
              else match take () with Some a -> a | None -> fresh ()
            in
            if List.mem choice acc then inputs n acc else inputs (n - 1) (choice :: acc)
        in
        let ins = inputs n_in [] in
        let outs = List.init n_out (fun _ -> fresh ()) in
        List.iter (fun o -> available := (o, ref shape.sharing) :: !available) outs;
        (Printf.sprintf "m%d" (i + 1), ins, outs))
      (Svutil.Listx.range shape.n_modules)
  in
  let attrs =
    Svutil.Listx.dedup (List.concat_map (fun (_, i, o) -> i @ o) mods)
  in
  (mods, attrs)

let random_costs rng shape attrs =
  List.map (fun a -> (a, Rat.of_int (1 + Rng.int rng shape.max_cost))) attrs

let random_card rng shape =
  let mods, attrs = wire rng shape in
  let module_req (name, ins, outs) =
    let ni = List.length ins and no = List.length outs in
    let n_opts = 1 + Rng.int rng 3 in
    let pairs =
      List.init n_opts (fun _ ->
          let a = Rng.int rng (ni + 1) and b = Rng.int rng (no + 1) in
          if a = 0 && b = 0 then (1, 0) else (a, b))
    in
    {
      I.m_name = name;
      inputs = ins;
      outputs = outs;
      req = Req.Card (Req.normalize_card pairs);
    }
  in
  I.make
    ~attr_costs:(random_costs rng shape attrs)
    ~mods:(List.map module_req mods) ()

let random_sets rng shape ~lmax =
  let mods, attrs = wire rng shape in
  let module_req (name, ins, outs) =
    let pool = ins @ outs in
    let option () =
      let size = 1 + Rng.int rng (min 3 (List.length pool)) in
      let chosen = Rng.sample rng size pool in
      (Svutil.Listx.inter chosen ins, Svutil.Listx.inter chosen outs)
    in
    let options = List.init lmax (fun _ -> option ()) in
    { I.m_name = name; inputs = ins; outputs = outs; req = Req.Sets (Req.normalize_sets options) }
  in
  I.make
    ~attr_costs:(random_costs rng shape attrs)
    ~mods:(List.map module_req mods) ()

(* E17's staircase: one module with options (l,0), (l-1,1), ..., (0,l)
   over l unit-cost inputs and l unit-cost outputs. Every integral
   solution pays l; the sum-free relaxation pays ~1. *)
let staircase l =
  let ins = List.init l (fun i -> Printf.sprintf "i%d" i) in
  let outs = List.init l (fun i -> Printf.sprintf "o%d" i) in
  let pairs = List.init (l + 1) (fun j -> (l - j, j)) in
  I.make
    ~attr_costs:(List.map (fun a -> (a, Rat.one)) (ins @ outs))
    ~mods:[ { I.m_name = "m"; inputs = ins; outputs = outs; req = Req.Card pairs } ]
    ()

(* Disjoint union of independently generated blocks, every attribute
   and module name prefixed with its block index. The blocks stay
   separate coupling components, which is exactly what the incremental
   re-solve kernels need: an edit inside one block leaves the others
   provably untouched. *)
let disjoint_union blocks =
  let rename i (inst : I.t) =
    let ra a = Printf.sprintf "b%d_%s" i a in
    let rreq = function
      | Req.Card l -> Req.Card l
      | Req.Sets l ->
          Req.Sets (List.map (fun (ins, outs) -> (List.map ra ins, List.map ra outs)) l)
    in
    ( List.map (fun (a, c) -> (ra a, c)) (I.attr_costs inst),
      List.map
        (fun (m : I.module_req) ->
          {
            I.m_name = ra m.I.m_name;
            inputs = List.map ra m.I.inputs;
            outputs = List.map ra m.I.outputs;
            req = rreq m.I.req;
          })
        (I.mods inst),
      List.map
        (fun (p : I.public_mod) ->
          { I.p_name = ra p.I.p_name; p_cost = p.I.p_cost; p_attrs = List.map ra p.I.p_attrs })
        (I.publics inst) )
  in
  let parts = List.mapi rename blocks in
  I.make
    ~attr_costs:(List.concat_map (fun (c, _, _) -> c) parts)
    ~mods:(List.concat_map (fun (_, m, _) -> m) parts)
    ~publics:(List.concat_map (fun (_, _, p) -> p) parts)
    ()

(* Three highly symmetric instances, the worst case for canonical
   labeling: every tie survives colour refinement, so only twin
   splitting and orbit pruning keep the search small. *)
let symmetric_fixtures () =
  let attrs prefix k cost =
    List.init k (fun i -> (Printf.sprintf "%s%d" prefix i, Rat.of_int cost))
  in
  let names l = List.map fst l in
  let m m_name inputs outputs req = { I.m_name; inputs; outputs; req } in
  let twins =
    (* One private module; any two inputs (or outputs) are twins, and
       the swap permutes the module's single-attribute options. *)
    let xs = attrs "x" 12 1 and ys = attrs "y" 12 2 in
    let opts =
      List.map (fun x -> ([ x ], [])) (names xs)
      @ List.map (fun y -> ([], [ y ])) (names ys)
    in
    I.make ~attr_costs:(xs @ ys) ~mods:[ m "m" (names xs) (names ys) (Req.Sets opts) ] ()
  in
  let copies =
    I.make
      ~attr_costs:(attrs "x" 16 1 @ attrs "y" 16 1)
      ~mods:
        (List.init 16 (fun i ->
             m (Printf.sprintf "m%d" i)
               [ Printf.sprintf "x%d" i ]
               [ Printf.sprintf "y%d" i ]
               (Req.Card [ (1, 0); (0, 1) ])))
      ()
  in
  let fanout =
    let hs = attrs "h" 12 2 in
    I.make
      ~attr_costs:((("x", Rat.one) :: hs) @ attrs "z" 12 3)
      ~mods:
        (m "src" [ "x" ] (names hs) (Req.Card [ (0, 1) ])
        :: List.init 12 (fun i ->
               m (Printf.sprintf "b%d" i)
                 [ Printf.sprintf "h%d" i ]
                 [ Printf.sprintf "z%d" i ]
                 (Req.Card [ (1, 0); (0, 1) ])))
      ()
  in
  [ ("twins_12x12", twins); ("copies_16", copies); ("fanout_12", fanout) ]
