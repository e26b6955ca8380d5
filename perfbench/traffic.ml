(* Seeded request traffic for the end-to-end serve benchmark.

   The benchmark owns its generator: it writes workflow specs in the
   [.swf] text format the daemon parses, over the five
   [Svbench.Corpus] topology families plus [Wf.Gen.random_workflow]
   DAGs, with random total boolean module tables. Every request is a
   pure function of the workload name, the seed and its position in the
   stream, so a seed replays byte-identical traffic. *)

module Rng = Svutil.Rng
module Corpus = Svbench.Corpus

(* {1 Workflows} *)

type wmod = {
  name : string;
  ins : string list;
  outs : string list;
  public : int option;  (** privatization cost when public *)
  rows : (int list * int list) list;  (** the full boolean table *)
}

type workflow = {
  overrides : (string * int) list;  (** per-module gamma; the default is 2 *)
  attrs : (string * int) list;  (** name, cost *)
  mods : wmod list;
}

(* A module's table has 2^inputs rows and derivation enumerates every
   subset of its attributes, so inputs are capped: an uncapped diamond
   with 8 maps would need a 16-input reducer with a 65,536-row table.
   Three keeps derivation from outweighing the solve. *)
let max_inputs = 3

let families = [| "chain"; "fanout"; "diamond"; "genomics"; "mesh"; "dag" |]
let n_sizes = 3

let bits n v = List.init n (fun i -> (v lsr (n - 1 - i)) land 1)

let random_rows rng ~ins ~outs =
  let ni = List.length ins and no = List.length outs in
  List.init (1 lsl ni) (fun v -> (bits ni v, List.init no (fun _ -> Rng.int rng 2)))

let dag_wiring rng n_modules =
  let w =
    Wf.Gen.random_workflow rng
      { Wf.Gen.default with n_modules; max_inputs; max_outputs = 2 }
  in
  List.map
    (fun m -> (m.Wf.Wmodule.name, Wf.Wmodule.input_names m, Wf.Wmodule.output_names m))
    (Wf.Workflow.modules w)

(* Sizes 0-2 per family. Diamonds stop at 4 maps: the source module
   has one output per map, and derivation is exponential in a module's
   attribute count. *)
let wiring rng family size =
  let pick s m l = [| s; m; l |].(size) in
  match family with
  | "chain" -> Corpus.chain rng ~n:(pick 4 8 16)
  | "fanout" -> Corpus.fanout rng ~width:(pick 4 8 16)
  | "diamond" -> Corpus.diamond rng ~maps:(pick 2 3 4)
  | "genomics" -> Corpus.genomics ~blocks:(pick 1 2 5)
  | "mesh" -> Corpus.mesh rng ~n:(pick 4 7 10)
  | _ -> dag_wiring rng (pick 4 7 10)

(* Module 0 stays private so every workflow has a requirement to meet.
   A gamma-4 override only goes to a private module with at least two
   boolean outputs: hiding them all reaches 4, so the spec stays
   feasible and passes the W020 preflight. *)
let workflow_of rng ~family ~size ~public_frac =
  let wiring =
    List.map
      (fun (n, ins, outs) -> (n, Svutil.Listx.take max_inputs ins, outs))
      (wiring rng family size)
  in
  let mods =
    List.mapi
      (fun i (name, ins, outs) ->
        let public =
          if i > 0 && Rng.float rng < public_frac then Some (1 + Rng.int rng 9) else None
        in
        { name; ins; outs; public; rows = random_rows rng ~ins ~outs })
      wiring
  in
  let attrs =
    Svutil.Listx.dedup (List.concat_map (fun m -> m.ins @ m.outs) mods)
    |> List.map (fun a -> (a, 1 + Rng.int rng 9))
  in
  let overrides =
    match
      List.filter (fun m -> m.public = None && List.length m.outs >= 2) mods
    with
    | [] -> []
    | cands -> if Rng.int rng 4 = 0 then [ ((Rng.pick rng cands).name, 4) ] else []
  in
  { overrides; attrs; mods }

let ints l = String.concat " " (List.map string_of_int l)

let render w =
  let b = Buffer.create 2048 in
  let p fmt = Printf.bprintf b fmt in
  p "gamma 2\n";
  List.iter (fun (m, g) -> p "gamma %s %d\n" m g) w.overrides;
  List.iter (fun (a, c) -> p "attr %s cost %d\n" a c) w.attrs;
  List.iter
    (fun m ->
      (match m.public with
      | None -> p "module %s private" m.name
      | Some c -> p "module %s public cost %d" m.name c);
      p " inputs %s outputs %s\n" (String.concat " " m.ins) (String.concat " " m.outs);
      List.iter (fun (i, o) -> p "row %s %s -> %s\n" m.name (ints i) (ints o)) m.rows)
    w.mods;
  Buffer.contents b

(* {1 Renaming}

   A renamed copy maps every attribute and module name to a fresh random
   one and reorders the attribute, module and row declarations. It is
   isomorphic to its original, so it has the same optimum and the same
   [Core.Canon.digest]; [back] maps the new names to the original ones. *)

type renamed = { wf : workflow; back : (string, string) Hashtbl.t }

let rename rng w =
  let fwd = Hashtbl.create 64 and back = Hashtbl.create 64 in
  let rec fresh () =
    let s = String.init 7 (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26)) in
    if Hashtbl.mem back s then fresh () else s
  in
  let nm x =
    match Hashtbl.find_opt fwd x with
    | Some y -> y
    | None ->
        let y = fresh () in
        Hashtbl.replace fwd x y;
        Hashtbl.replace back y x;
        y
  in
  let mods =
    List.map
      (fun m ->
        {
          m with
          name = nm m.name;
          ins = List.map nm m.ins;
          outs = List.map nm m.outs;
          rows = Rng.shuffle rng m.rows;
        })
      w.mods
  in
  let wf =
    {
      overrides = List.map (fun (m, g) -> (nm m, g)) w.overrides;
      attrs = Rng.shuffle rng (List.map (fun (a, c) -> (nm a, c)) w.attrs);
      mods = Rng.shuffle rng mods;
    }
  in
  { wf; back }

(* {1 Workloads} *)

type workload = Solve_uncached | Mixed_churn

let workloads = [ ("solve_uncached", Solve_uncached); ("mixed_churn", Mixed_churn) ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

(* The churn pool is three times the daemon's 128-entry LRU. *)
let pool_size = function Solve_uncached -> 240 | Mixed_churn -> 384

(* The pools are a fixed corpus, like [Svbench.Corpus]'s seed-42 one;
   the run's seed draws the traffic over them. With seeded pools the
   latency tail is made of different workflows on every seed, and p99
   spread by more than a quarter across seeds. A pool
   is drawn from the generator alone, never filtered by how the solver
   fares on it, so every commit sends the same traffic.

   Member [i] cycles through the families, then the sizes, then two
   public fractions, so the hottest ranks of a skewed draw mix them. *)
let corpus_seed = 42

let pool_workflow wl i =
  let nf = Array.length families in
  let family = families.(i mod nf) in
  let size = i / nf mod n_sizes in
  let public_frac = if i / (nf * n_sizes) mod 2 = 0 then 0.0 else 0.3 in
  let rng =
    Rng.create (Corpus.hash31 (Printf.sprintf "%d|%s|%d" corpus_seed (workload_name wl) i))
  in
  workflow_of rng ~family ~size ~public_frac

let pool_workflows wl = List.init (pool_size wl) (pool_workflow wl)

(* {1 Requests} *)

type request = {
  id : int;  (** position in the stream, echoed as the request id *)
  line : string;  (** one protocol line, without its newline *)
  base : int;  (** pool index of the workflow it renames *)
  back : (string, string) Hashtbl.t;  (** renamed name -> pool name *)
  lp : bool;  (** asks for the non-cacheable [lp] rounding method *)
}

let request_line ~id ~cache ~lp text =
  Printf.sprintf "{\"id\":\"%d\",\"workflow\":\"%s\"%s%s}" id (Svutil.Json.escape text)
    (if cache then "" else ",\"cache\":false")
    (if lp then ",\"method\":\"lp\"" else "")

(* Skewed draws for [mixed_churn]: rank r has weight 1/(r+1). *)
let zipf_sampler n =
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cum.(r) <- !acc
  done;
  fun rng ->
    let u = Rng.float rng *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    !lo

type stream = {
  warm : request list;  (** the set-up traffic, sent before timing starts *)
  next : unit -> request;  (** the timed traffic, one request per call *)
}

let stream ~seed wl (pool : workflow array) =
  let rng = Rng.create (Corpus.hash31 (Printf.sprintf "%d|%s|stream" seed (workload_name wl))) in
  let n = Array.length pool in
  let counter = ref 0 in
  let emit ?(cache = true) ?(lp = false) base =
    let id = !counter in
    incr counter;
    let r = rename rng pool.(base) in
    { id; line = request_line ~id ~cache ~lp (render r.wf); base; back = r.back; lp }
  in
  let next =
    match wl with
    | Solve_uncached ->
        let order = ref [||] and pos = ref 0 in
        fun () ->
          if !pos >= Array.length !order then begin
            order := Array.of_list (Rng.shuffle rng (List.init n Fun.id));
            pos := 0
          end;
          incr pos;
          emit ~cache:false !order.(!pos - 1)
    | Mixed_churn ->
        let draw = zipf_sampler n in
        fun () ->
          let lp = Rng.int rng 5 = 0 in
          emit ~lp (draw rng)
  in
  (* Set-up traffic: the stream's first pool-size stretch, which for
     solve_uncached is one pass over the pool. *)
  let warm = List.init n (fun _ -> next ()) in
  { warm; next }

(* {1 The reference optimum}

   Each pool workflow's optimum comes from an independent route: the
   pure-exact branch and bound (rational simplex, no flow fixings),
   which is the oracle the serve path's hybrid simplex and flow pruning
   are checked against. *)

type base = { inst : Core.Instance.t; opt : Rat.t }

let instance w =
  match Serve.Request.spec_of_string ~preflight:true (render w) with
  | Ok spec -> Serve.Request.instance_of spec
  | Error e -> failwith ("generated spec rejected: " ^ Serve.Request.message e)

let base_of w =
  let inst = instance w in
  match Core.Exact.solve ~mode:Lp.Simplex.Exact_mode inst with
  | Some { Core.Exact.solution; proven_optimal = true } ->
      { inst; opt = solution.Core.Solution.cost }
  | Some _ | None -> failwith "generated spec has no proven optimum"
