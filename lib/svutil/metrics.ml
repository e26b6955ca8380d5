(* Metrics registry: counters, summary histograms, nested spans.

   Live registries keep three small hashtables keyed by name.  Handles
   returned by [counter]/[histogram] point at mutable cells so repeated
   updates skip the string hash.  The nop registry shares a pair of
   dummy handles whose [live] flag short-circuits every update; callers
   can therefore thread a registry unconditionally. *)

type counter = { mutable c : int; c_live : bool }

type histogram = {
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  h_live : bool;
}

type span_cell = { mutable s_count : int; mutable s_ms : float }

type t = {
  live : bool;
  cs : (string, counter) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
  ss : (string, span_cell) Hashtbl.t;
  mutable stack : string list; (* enclosing span labels, innermost first *)
}

let dummy_counter = { c = 0; c_live = false }

let dummy_histogram =
  { n = 0; sum = 0.; mn = infinity; mx = neg_infinity; h_live = false }

let nop =
  {
    live = false;
    cs = Hashtbl.create 1;
    hs = Hashtbl.create 1;
    ss = Hashtbl.create 1;
    stack = [];
  }

let create () =
  {
    live = true;
    cs = Hashtbl.create 16;
    hs = Hashtbl.create 8;
    ss = Hashtbl.create 8;
    stack = [];
  }

let enabled t = t.live

(* Counters *)

let counter t name =
  if not t.live then dummy_counter
  else
    match Hashtbl.find_opt t.cs name with
    | Some c -> c
    | None ->
        let c = { c = 0; c_live = true } in
        Hashtbl.add t.cs name c;
        c

let incr c = if c.c_live then c.c <- c.c + 1
let add c n = if c.c_live then c.c <- c.c + n
let tick t name = if t.live then incr (counter t name)
let count t name n = if t.live then add (counter t name) n

let counter_value t name =
  match Hashtbl.find_opt t.cs name with Some c -> c.c | None -> 0

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.cs (fun c -> c.c)

(* Histograms *)

type histo_stats = { hcount : int; hsum : float; hmin : float; hmax : float }

let histogram t name =
  if not t.live then dummy_histogram
  else
    match Hashtbl.find_opt t.hs name with
    | Some h -> h
    | None ->
        let h = { n = 0; sum = 0.; mn = infinity; mx = neg_infinity; h_live = true } in
        Hashtbl.add t.hs name h;
        h

let observe h x =
  if h.h_live then begin
    h.n <- h.n + 1;
    h.sum <- h.sum +. x;
    if x < h.mn then h.mn <- x;
    if x > h.mx then h.mx <- x
  end

let observe_in t name x = if t.live then observe (histogram t name) x

let stats_of_histogram h =
  { hcount = h.n; hsum = h.sum; hmin = h.mn; hmax = h.mx }

let histo_stats t name =
  match Hashtbl.find_opt t.hs name with
  | Some h when h.n > 0 -> Some (stats_of_histogram h)
  | _ -> None

let histograms t =
  Hashtbl.fold
    (fun k h acc -> if h.n > 0 then (k, stats_of_histogram h) :: acc else acc)
    t.hs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Spans *)

let span_cell t path =
  match Hashtbl.find_opt t.ss path with
  | Some s -> s
  | None ->
      let s = { s_count = 0; s_ms = 0. } in
      Hashtbl.add t.ss path s;
      s

let record_span t path ms =
  if t.live then begin
    let s = span_cell t path in
    s.s_count <- s.s_count + 1;
    s.s_ms <- s.s_ms +. ms
  end

let current_path t label =
  match t.stack with
  | [] -> label
  | stack -> String.concat "/" (List.rev (label :: stack))

let pop_stack t =
  match t.stack with [] -> () | _ :: tl -> t.stack <- tl

let timed t label f =
  if not t.live then begin
    let t0 = Deadline.now_ms () in
    let r = f () in
    (r, Deadline.now_ms () -. t0)
  end
  else begin
    let path = current_path t label in
    let t0 = Deadline.now_ms () in
    t.stack <- label :: t.stack;
    match f () with
    | r ->
        let ms = Deadline.now_ms () -. t0 in
        pop_stack t;
        record_span t path ms;
        (r, ms)
    | exception e ->
        let ms = Deadline.now_ms () -. t0 in
        pop_stack t;
        record_span t path ms;
        raise e
  end

let span t label f = if not t.live then f () else fst (timed t label f)

let span_stats t path =
  match Hashtbl.find_opt t.ss path with
  | Some s -> Some (s.s_count, s.s_ms)
  | None -> None

let spans t = sorted_bindings t.ss (fun s -> (s.s_count, s.s_ms))

(* Combining *)

let absorb dst src =
  if dst.live then begin
    Hashtbl.iter (fun name c -> count dst name c.c) src.cs;
    Hashtbl.iter
      (fun name h ->
        if h.n > 0 then begin
          let d = histogram dst name in
          d.n <- d.n + h.n;
          d.sum <- d.sum +. h.sum;
          if h.mn < d.mn then d.mn <- h.mn;
          if h.mx > d.mx then d.mx <- h.mx
        end)
      src.hs;
    Hashtbl.iter
      (fun path s ->
        let d = span_cell dst path in
        d.s_count <- d.s_count + s.s_count;
        d.s_ms <- d.s_ms +. s.s_ms)
      src.ss
  end

let merge a b =
  if (not a.live) && not b.live then nop
  else begin
    let t = create () in
    absorb t a;
    absorb t b;
    t
  end

let equal a b =
  let heq (x : histo_stats) (y : histo_stats) =
    x.hcount = y.hcount && x.hsum = y.hsum && x.hmin = y.hmin && x.hmax = y.hmax
  in
  counters a = counters b
  && List.equal
       (fun (ka, va) (kb, vb) -> ka = kb && heq va vb)
       (histograms a) (histograms b)
  && spans a = spans b

let is_empty t =
  counters t = [] && histograms t = [] && spans t = []

(* JSON *)

let buf_add_escaped b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let json_float x =
  (* shortest representation that round-trips exactly *)
  let s = Printf.sprintf "%.17g" x in
  let shorter = Printf.sprintf "%.12g" x in
  if float_of_string shorter = x then shorter else s

let to_json t =
  let b = Buffer.create 256 in
  let key k =
    Buffer.add_char b '"';
    buf_add_escaped b k;
    Buffer.add_string b "\":"
  in
  let obj name entries emit =
    key name;
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        key k;
        emit v)
      entries;
    Buffer.add_char b '}'
  in
  Buffer.add_char b '{';
  obj "counters" (counters t) (fun v -> Buffer.add_string b (string_of_int v));
  Buffer.add_char b ',';
  obj "histograms" (histograms t) (fun (h : histo_stats) ->
      Buffer.add_string b
        (Printf.sprintf "{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s}"
           h.hcount (json_float h.hsum) (json_float h.hmin)
           (json_float h.hmax)));
  Buffer.add_char b ',';
  obj "spans" (spans t) (fun (n, ms) ->
      Buffer.add_string b
        (Printf.sprintf "{\"count\":%d,\"total_ms\":%s}" n (json_float ms)));
  Buffer.add_char b '}';
  Buffer.contents b

(* Minimal recursive-descent parser for the subset of JSON that
   [to_json] emits: objects, strings, and numbers. *)

exception Parse of string

type jv = Obj of (string * jv) list | Num of float | Str of string

let of_json s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = Stdlib.incr pos in
  let skip_ws () =
    while
      !pos < len
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= len then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 't' -> Buffer.add_char b '\t'
               | 'u' ->
                   if !pos + 4 >= len then fail "bad \\u escape"
                   else begin
                     let hex = String.sub s (!pos + 1) 4 in
                     (match int_of_string_opt ("0x" ^ hex) with
                     | Some code when code < 0x80 ->
                         Buffer.add_char b (Char.chr code)
                     | _ -> fail "unsupported \\u escape");
                     pos := !pos + 4
                   end
               | _ -> fail "unsupported escape");
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < len
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            let k = (skip_ws (); parse_string ()) in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '"' -> Str (parse_string ())
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | exception Parse msg -> Error msg
  | v -> (
      let t = create () in
      let field name o =
        match List.assoc_opt name o with
        | Some v -> v
        | None -> raise (Parse (name ^ " missing"))
      in
      let as_obj = function Obj o -> o | _ -> raise (Parse "expected object") in
      let as_num = function Num f -> f | _ -> raise (Parse "expected number") in
      let as_int v =
        let f = as_num v in
        let i = int_of_float f in
        if float_of_int i <> f then raise (Parse "expected integer") else i
      in
      match v with
      | Obj top -> (
          try
            List.iter
              (fun (name, v) -> count t name (as_int v))
              (as_obj (field "counters" top));
            List.iter
              (fun (name, v) ->
                let o = as_obj v in
                let h = histogram t name in
                h.n <- as_int (field "count" o);
                h.sum <- as_num (field "sum" o);
                h.mn <- as_num (field "min" o);
                h.mx <- as_num (field "max" o))
              (as_obj (field "histograms" top));
            List.iter
              (fun (path, v) ->
                let o = as_obj v in
                let cell = span_cell t path in
                cell.s_count <- as_int (field "count" o);
                cell.s_ms <- as_num (field "total_ms" o))
              (as_obj (field "spans" top));
            Ok t
          with Parse msg -> Error msg)
      | _ -> Error "top-level value is not an object")
