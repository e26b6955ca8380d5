(* Privacy-flow analysis over workflow DAGs.

   Core.Flow decides what it can from the requirement lists alone; this
   layer adds everything that needs the wiring: per-attribute
   forward/backward dependency closures, the visible-flow reachability
   lattice, per-module Gamma bounds, and the findings the linter turns
   into W05x diagnostics.

   The lattice refines Core.Flow's verdicts with public-module
   propagation. A public module's function is known to the adversary,
   so its attributes are informationally coupled: if any of them is
   privacy-relevant (must-hide or referenced by some requirement), all
   of them are at least derivable-from-visible. Attributes below that —
   [Independent] — are exactly the may-expose attributes no public
   module couples to anything relevant, so exposing all of them jointly
   is still optimum-preserving (Core.Flow's may-expose argument applies
   to each, and privatization sets only shrink). *)

module P = Wf.Parse
module W = Wf.Workflow
module M = Wf.Wmodule
module St = Privacy.Standalone
module Listx = Svutil.Listx

type level = Independent | Derivable | Hidden

let level_to_string = function
  | Independent -> "independent"
  | Derivable -> "derivable"
  | Hidden -> "hidden"

type attr_info = {
  attr : string;
  cost : Rat.t;
  level : level;
  verdict : Core.Flow.verdict option;
  upstream : string list;  (** attributes it transitively depends on *)
  downstream : string list;  (** attributes transitively depending on it *)
}

type module_info = {
  m_name : string;
  public : bool;
  gamma_requested : int;  (** 1 for public modules: no requirement *)
  gamma_guaranteed : int;
      (** standalone privacy every feasible view already provides,
          [min_out_size] under the must-hide set *)
  gamma_achievable : int;  (** [max_achievable_gamma]; saturating *)
}

type finding =
  | Useless_cost of { attr : string; cost : Rat.t }
  | Forced_privatization of { p_name : string; p_cost : Rat.t; attr : string }

type t = {
  kernel : Core.Flow.t;
  attrs : attr_info list;
  modules : module_info list;
  findings : finding list;
}

(* ------------------------------------------------------------------ *)
(* Dependency closures                                                 *)
(* ------------------------------------------------------------------ *)

(* The single-pass-per-direction algorithm lives in Core.Delta (the
   incremental engine needs it on bare wiring pairs); this wrapper just
   adapts a workflow's module list. *)
let wiring w =
  List.map (fun m -> (M.input_names m, M.output_names m)) (W.modules w)

let closures w = Core.Delta.wiring_closures (wiring w)

(* ------------------------------------------------------------------ *)
(* The lattice fixpoint                                                *)
(* ------------------------------------------------------------------ *)

(* Independent ⊑ Derivable ⊑ Hidden. Seed: must-hide attrs are Hidden,
   other referenced attrs Derivable. Transfer: a public module any of
   whose attributes sits above Independent lifts all its attributes to
   at least Derivable. Monotone over a finite lattice, so the worklist
   loop reaches the least fixpoint. *)
let levels (inst : Core.Instance.t) (kernel : Core.Flow.t) =
  let tbl : (string, level) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun a -> Hashtbl.replace tbl a Independent) (Core.Instance.attrs inst);
  List.iter (fun a -> Hashtbl.replace tbl a Hidden) (Core.Flow.must_hide kernel);
  List.iter (fun a -> Hashtbl.replace tbl a Derivable) kernel.Core.Flow.undecided;
  let level_of a = Option.value ~default:Independent (Hashtbl.find_opt tbl a) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p : Core.Instance.public_mod) ->
        let relevant =
          List.exists (fun a -> level_of a <> Independent) p.Core.Instance.p_attrs
        in
        if relevant then
          List.iter
            (fun a ->
              if level_of a = Independent then begin
                Hashtbl.replace tbl a Derivable;
                changed := true
              end)
            p.Core.Instance.p_attrs)
      (Core.Instance.publics inst)
  done;
  level_of

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let analyze_workflow ?(publics = []) ?(gamma_overrides = []) ~gamma
    ~(cost : string -> Rat.t) ?metrics w =
  let inst =
    Core.Instance.of_workflow w ~gamma ~gamma_overrides ~cost ~publics ()
  in
  let kernel = Core.Flow.analyze ?metrics inst in
  let upstream, downstream = closures w in
  let level_of = levels inst kernel in
  let verdict_of a =
    List.find_opt (fun (v : Core.Flow.verdict) -> v.Core.Flow.attr = a)
      kernel.Core.Flow.verdicts
  in
  let attrs =
    List.map
      (fun a ->
        {
          attr = a;
          cost = Core.Instance.attr_cost inst a;
          level = level_of a;
          verdict = verdict_of a;
          upstream = upstream a;
          downstream = downstream a;
        })
      (Core.Instance.attrs inst)
  in
  let must = Core.Flow.must_hide kernel in
  let modules =
    List.map
      (fun m ->
        let public = List.mem_assoc m.M.name publics in
        let gamma_requested =
          if public then 1
          else
            Option.value ~default:gamma (List.assoc_opt m.M.name gamma_overrides)
        in
        let visible = Listx.diff (M.attr_names m) must in
        {
          m_name = m.M.name;
          public;
          gamma_requested;
          gamma_guaranteed = St.min_out_size m ~visible;
          gamma_achievable = St.max_achievable_gamma m;
        })
      (W.modules w)
  in
  let findings =
    List.filter_map
      (fun (a : attr_info) ->
        if a.level = Independent && Rat.gt a.cost Rat.zero then
          Some (Useless_cost { attr = a.attr; cost = a.cost })
        else None)
      attrs
    @ List.filter_map
        (fun (p : Core.Instance.public_mod) ->
          match Listx.inter p.Core.Instance.p_attrs must with
          | [] -> None
          | attr :: _ ->
              Some
                (Forced_privatization
                   {
                     p_name = p.Core.Instance.p_name;
                     p_cost = p.Core.Instance.p_cost;
                     attr;
                   }))
        (Core.Instance.publics inst)
  in
  { kernel; attrs; modules; findings }

let analyze ?metrics (spec : P.spec) =
  analyze_workflow ~publics:spec.P.publics ~gamma_overrides:spec.P.gamma_overrides
    ~gamma:spec.P.gamma
    ~cost:(fun a -> List.assoc a spec.P.costs)
    ?metrics spec.P.workflow

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let finding_to_string = function
  | Useless_cost { attr; cost } ->
      Printf.sprintf
        "useless cost: %s is independent of every requirement yet costs %s" attr
        (Rat.to_string cost)
  | Forced_privatization { p_name; p_cost; attr } ->
      Printf.sprintf
        "forced privatization: %s (cost %s) adjoins must-hide attribute %s"
        p_name (Rat.to_string p_cost) attr

let to_text t =
  let b = Buffer.create 1024 in
  let k = t.kernel in
  Buffer.add_string b
    (Printf.sprintf
       "flow: %d attributes — %d must-hide, %d may-expose, %d open\n"
       (List.length t.attrs)
       (List.length (Core.Flow.must_hide k))
       (List.length (Core.Flow.may_expose k))
       (List.length k.Core.Flow.undecided));
  (match k.Core.Flow.infeasible_module with
  | Some m ->
      Buffer.add_string b
        (Printf.sprintf "infeasible: module %s has no satisfiable option\n" m)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "static cost bounds: %s <= optimum%s\n"
       (Rat.to_string k.Core.Flow.lower_cost)
       (match k.Core.Flow.upper_cost with
       | Some u -> Printf.sprintf " <= %s" (Rat.to_string u)
       | None -> " (no feasible solution)"));
  List.iter
    (fun (m : module_info) ->
      Buffer.add_string b
        (Printf.sprintf "module %s (%s): gamma %d requested, >=%d guaranteed, <=%s achievable\n"
           m.m_name
           (if m.public then "public" else "private")
           m.gamma_requested m.gamma_guaranteed
           (if m.gamma_achievable = max_int then "inf"
            else string_of_int m.gamma_achievable)))
    t.modules;
  List.iter
    (fun (a : attr_info) ->
      Buffer.add_string b
        (Printf.sprintf "attr %s [%s]%s: upstream {%s} downstream {%s}\n" a.attr
           (level_to_string a.level)
           (match a.verdict with
           | Some v ->
               Printf.sprintf " %s — %s"
                 (Core.Flow.kind_to_string v.Core.Flow.kind)
                 (Core.Flow.justification_to_string v.Core.Flow.why)
           | None -> "")
           (String.concat " " a.upstream)
           (String.concat " " a.downstream)))
    t.attrs;
  List.iter
    (fun f -> Buffer.add_string b (finding_to_string f ^ "\n"))
    t.findings;
  Buffer.contents b

(* Minimal JSON emission, matching the escaping the CLI uses. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_str s = "\"" ^ json_escape s ^ "\""
let json_list items = "[" ^ String.concat "," items ^ "]"
let json_strs items = json_list (List.map json_str items)

let to_json t =
  let k = t.kernel in
  let verdict_json (v : Core.Flow.verdict) =
    Printf.sprintf "{\"kind\":%s,\"why\":%s}"
      (json_str (Core.Flow.kind_to_string v.Core.Flow.kind))
      (json_str (Core.Flow.justification_to_string v.Core.Flow.why))
  in
  let attr_json (a : attr_info) =
    Printf.sprintf
      "{\"attr\":%s,\"cost\":%s,\"level\":%s,\"verdict\":%s,\"upstream\":%s,\"downstream\":%s}"
      (json_str a.attr)
      (json_str (Rat.to_string a.cost))
      (json_str (level_to_string a.level))
      (match a.verdict with Some v -> verdict_json v | None -> "null")
      (json_strs a.upstream) (json_strs a.downstream)
  in
  let module_json (m : module_info) =
    Printf.sprintf
      "{\"module\":%s,\"public\":%b,\"gamma_requested\":%d,\"gamma_guaranteed\":%d,\"gamma_achievable\":%s}"
      (json_str m.m_name) m.public m.gamma_requested m.gamma_guaranteed
      (if m.gamma_achievable = max_int then "null"
       else string_of_int m.gamma_achievable)
  in
  let finding_json = function
    | Useless_cost { attr; cost } ->
        Printf.sprintf "{\"finding\":\"useless_cost\",\"attr\":%s,\"cost\":%s}"
          (json_str attr)
          (json_str (Rat.to_string cost))
    | Forced_privatization { p_name; p_cost; attr } ->
        Printf.sprintf
          "{\"finding\":\"forced_privatization\",\"module\":%s,\"cost\":%s,\"attr\":%s}"
          (json_str p_name)
          (json_str (Rat.to_string p_cost))
          (json_str attr)
  in
  Printf.sprintf
    "{\"must_hide\":%s,\"may_expose\":%s,\"undecided\":%s,\"infeasible_module\":%s,\"lower_cost\":%s,\"upper_cost\":%s,\"attrs\":%s,\"modules\":%s,\"findings\":%s}"
    (json_strs (Core.Flow.must_hide k))
    (json_strs (Core.Flow.may_expose k))
    (json_strs k.Core.Flow.undecided)
    (match k.Core.Flow.infeasible_module with
    | Some m -> json_str m
    | None -> "null")
    (json_str (Rat.to_string k.Core.Flow.lower_cost))
    (match k.Core.Flow.upper_cost with
    | Some u -> json_str (Rat.to_string u)
    | None -> "null")
    (json_list (List.map attr_json t.attrs))
    (json_list (List.map module_json t.modules))
    (json_list (List.map finding_json t.findings))
