(* The shared request layer: error type + exit codes, spec loading,
   solver options, and the JSON-lines protocol decoder. See the mli for
   the exit-code mapping this module is the single source of truth
   for. *)

module Wfcheck = Analysis.Wfcheck
module Json = Svutil.Json

type error =
  | Usage of string
  | Parse_error of string
  | Static_errors of { file : string; diagnostics : Wfcheck.diagnostic list }
  | Unknown_name of string
  | Internal of string

let exit_code = function
  | Usage _ | Parse_error _ | Unknown_name _ -> 2
  | Static_errors _ -> 1
  | Internal _ -> 3

let kind = function
  | Usage _ -> "usage"
  | Parse_error _ -> "parse"
  | Static_errors _ -> "static"
  | Unknown_name _ -> "unknown-name"
  | Internal _ -> "internal"

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) (String.trim s)

let static_summary file n =
  Printf.sprintf "%s fails %d static check%s (secure_view_cli lint %s)" file n
    (if n = 1 then "" else "s")
    file

let message = function
  | Usage m | Parse_error m | Unknown_name m | Internal m -> one_line m
  | Static_errors { file; diagnostics } ->
      static_summary file (List.length diagnostics)

let text = function
  | Static_errors { file; diagnostics } ->
      Wfcheck.to_text ~file diagnostics
      ^ "\nerror: "
      ^ static_summary file (List.length diagnostics)
  | e -> message e

(* Spec loading ------------------------------------------------------- *)

let check_static ~file spec =
  match Wfcheck.errors (Wfcheck.check_spec spec) with
  | [] -> Ok spec
  | diagnostics -> Error (Static_errors { file; diagnostics })

let spec_of_file ?(preflight = false) path =
  match (try Wf.Parse.parse_file path with Sys_error m -> Error m) with
  | Error e -> Error (Parse_error e)
  | Ok spec -> if preflight then check_static ~file:path spec else Ok spec

let inline_name = "<request>"

let spec_of_string ?(preflight = false) ?(name = inline_name) src =
  match Wf.Parse.parse_string src with
  | Error e -> Error (Parse_error e)
  | Ok spec -> if preflight then check_static ~file:name spec else Ok spec

(* The derivation memo --------------------------------------------- *)

let memo_capacity = 1024
let memo_max_bytes = 4096

type memo = {
  entries : Core.Derive.derived Svutil.Lru.t;
  hits : Svutil.Metrics.counter;
  misses : Svutil.Metrics.counter;
}

let create_memo ?(metrics = Svutil.Metrics.nop) () =
  {
    entries = Svutil.Lru.create memo_capacity;
    hits = Svutil.Metrics.counter metrics "serve.derive_hits";
    misses = Svutil.Metrics.counter metrics "serve.derive_misses";
  }

let memo_entries memo = memo.entries

(* An entry's size: its key, and a word per int of the derivation. *)
let entry_bytes key = function
  | Core.Derive.Card_form card -> String.length key + (16 * List.length card)
  | Core.Derive.Set_masks masks -> String.length key + (8 * List.length masks)

(* [Core.Derive.derive] is a pure function of the key, so a hit returns
   what deriving would. A module whose key or entry is over the size
   bound is derived and not stored; an exception escapes unstored. *)
let derive_through memo m ~gamma =
  match Core.Derive.key m ~gamma ~max_bytes:memo_max_bytes with
  | None ->
      Svutil.Metrics.incr memo.misses;
      Core.Derive.derive m ~gamma
  | Some key -> (
      match Svutil.Lru.find memo.entries key with
      | Some d ->
          Svutil.Metrics.incr memo.hits;
          d
      | None ->
          Svutil.Metrics.incr memo.misses;
          let d = Core.Derive.derive m ~gamma in
          if entry_bytes key d <= memo_max_bytes then Svutil.Lru.add memo.entries key d;
          d)

(* The ids elaboration assigned carry straight into the instance: no
   name is looked up. Private modules keep the workflow's topological
   order and publics their declaration order, as
   [Core.Instance.of_workflow] orders them. *)
let instance_of ?memo (spec : Wf.Parse.spec) =
  let w = spec.Wf.Parse.workflow in
  let module I = Core.Instance in
  let modules = w.Wf.Workflow.modules in
  let public = Array.make (Array.length modules) false in
  let pubs =
    Array.map
      (fun (k, pcost) ->
        public.(k) <- true;
        { I.pname = modules.(k).Wf.Wmodule.name; pcost;
          pattrs = Array.append w.Wf.Workflow.ins.(k) w.Wf.Workflow.outs.(k) })
      spec.Wf.Parse.public_mods
  in
  I.of_ids ~names:w.Wf.Workflow.names ~costs:spec.Wf.Parse.attr_cost ~pubs (fun ~rank ->
      let pmods = ref [] in
      for k = 0 to Array.length modules - 1 do
        if not public.(k) then begin
          let m = modules.(k) and ins = w.Wf.Workflow.ins.(k) and outs = w.Wf.Workflow.outs.(k) in
          let gamma = spec.Wf.Parse.mod_gamma.(k) in
          let derived =
            match memo with
            | None -> Core.Derive.derive m ~gamma
            | Some memo -> derive_through memo m ~gamma
          in
          pmods :=
            { I.mname = m.Wf.Wmodule.name; ins; outs; ireq = I.req_of_derived ~rank ~ins ~outs derived }
            :: !pmods
        end
      done;
      Array.of_list (List.rev !pmods))

(* Solver options ----------------------------------------------------- *)

type options = {
  meth : Core.Engine.meth;
  node_limit : int;
  seed : int;
  deadline_ms : float option;
  trials : int;
}

let default_options =
  {
    meth = Core.Engine.Auto;
    node_limit = Lp.Ilp.default_node_limit;
    seed = 0;
    deadline_ms = None;
    trials = 4;
  }

let engine_request ?(metrics = Svutil.Metrics.nop) inst (o : options) =
  {
    (Core.Engine.default_request inst) with
    Core.Engine.meth = o.meth;
    node_limit = o.node_limit;
    seed = o.seed;
    deadline_ms = o.deadline_ms;
    trials = o.trials;
    metrics;
  }

(* The CLI spellings keep their historical names: [lp] is the set-LP
   threshold rounding, [alg1] the cardinality-LP randomized rounding. *)
let method_names =
  [
    ("auto", Core.Engine.Auto);
    ("greedy", Core.Engine.Greedy);
    ("lp", Core.Engine.Round_set);
    ("alg1", Core.Engine.Round_card);
    ("exact", Core.Engine.Exact);
    ("brute", Core.Engine.Brute);
  ]

let method_of_name n = List.assoc_opt n method_names

(* Protocol ----------------------------------------------------------- *)

type source = Inline of string | File of string

type solve = {
  source : source;
  options : options;
  use_cache : bool;
  want_metrics : bool;
  want_timings : bool;
}

type op = Solve of solve | Ping | Stats | Shutdown
type t = { id : string option; op : op }

let ( let* ) = Result.bind

(* Every field accessor distinguishes "absent" (use the default) from
   "present with the wrong type" (a Usage error) — silently ignoring a
   mistyped budget would be worse than rejecting the request. *)
let field obj key conv what default =
  match Json.member key obj with
  | None | Some Json.Null -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None ->
          Error (Usage (Printf.sprintf "field %S: expected %s" key what)))

let int_field obj key d = field obj key Json.to_int "an integer" d
let bool_field obj key d = field obj key Json.to_bool "a boolean" d
let str_field obj key d = field obj key Json.to_str "a string" d

let opt_finite_field obj key d =
  field obj key
    (fun v ->
      match Json.to_float v with
      | Some f when Float.is_finite f -> Some (Some f)
      | _ -> None)
    "a finite number" d

(* A misspelt field (["methd"]) must not silently run the defaults, so
   every key outside the op's documented set is a Usage error. *)
let common_fields = [ "id"; "op" ]

let solve_fields =
  common_fields
  @ [
      "workflow"; "file"; "method"; "node_limit"; "seed"; "trials";
      "deadline_ms"; "cache"; "metrics"; "timings";
    ]

let known_fields allowed kvs =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
  | None -> Ok ()
  | Some (k, _) -> Error (Usage (Printf.sprintf "unknown field %S" k))

let id_of obj =
  match Json.member "id" obj with
  | None | Some Json.Null -> Ok None
  | Some (Json.Str s) -> Ok (Some s)
  | Some (Json.Num n) -> Ok (Some (Json.number_to_string n))
  | Some _ -> Error (Usage "field \"id\": expected a string or number")

let source_of obj =
  match (Json.member "workflow" obj, Json.member "file" obj) with
  | Some (Json.Str w), None -> Ok (Inline w)
  | None, Some (Json.Str f) -> Ok (File f)
  | None, None ->
      Error (Usage "solve request needs a \"workflow\" or \"file\" field")
  | Some _, Some _ ->
      Error (Usage "give either \"workflow\" or \"file\", not both")
  | _ -> Error (Usage "field \"workflow\"/\"file\": expected a string")

let solve_of ~defaults obj =
  let* source = source_of obj in
  let* meth =
    match Json.member "method" obj with
    | None | Some Json.Null -> Ok defaults.meth
    | Some (Json.Str m) -> (
        match method_of_name m with
        | Some meth -> Ok meth
        | None -> Error (Unknown_name (Printf.sprintf "unknown method %S" m)))
    | Some _ -> Error (Usage "field \"method\": expected a string")
  in
  let* node_limit = int_field obj "node_limit" defaults.node_limit in
  let* seed = int_field obj "seed" defaults.seed in
  let* trials = int_field obj "trials" defaults.trials in
  let* deadline_ms = opt_finite_field obj "deadline_ms" defaults.deadline_ms in
  let* use_cache = bool_field obj "cache" true in
  let* want_metrics = bool_field obj "metrics" false in
  let* want_timings = bool_field obj "timings" false in
  Ok
    (Solve
       {
         source;
         options =
           {
             meth;
             node_limit;
             seed;
             deadline_ms;
             trials = max 1 trials;
           };
         use_cache;
         want_metrics;
         want_timings;
       })

let of_json_line ~defaults line =
  match Json.of_string line with
  | Error e -> Error (None, Parse_error ("request: " ^ e))
  | Ok (Json.Obj kvs as obj) -> (
      match id_of obj with
      | Error e -> Error (None, e)
      | Ok id -> (
          let decoded =
            let* op_name = str_field obj "op" "solve" in
            let only op =
              let* () = known_fields common_fields kvs in
              Ok op
            in
            match op_name with
            | "solve" ->
                let* () = known_fields solve_fields kvs in
                solve_of ~defaults obj
            | "ping" -> only Ping
            | "stats" -> only Stats
            | "shutdown" -> only Shutdown
            | other ->
                Error (Unknown_name (Printf.sprintf "unknown op %S" other))
          in
          match decoded with
          | Ok op -> Ok { id; op }
          | Error e -> Error (id, e)))
  | Ok _ -> Error (None, Usage "request: expected a JSON object")
