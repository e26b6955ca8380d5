(* A minimal generic JSON reader/writer for the serve protocol. The
   Metrics module keeps its own specialized parser (it decodes straight
   into a registry); this one builds a value tree for callers that need
   to inspect arbitrary request objects. Numbers are kept as floats —
   protocol fields are small integers and millisecond budgets, both of
   which floats represent exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse of string

(* The parser recurses once per open bracket, so nesting is bounded:
   a hostile line cannot exhaust the stack or hold the reader for
   seconds.  The deepest document the repo reads or writes nests 5
   levels. *)
let max_depth = 512

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = parse_error "%s at offset %d" msg !pos in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
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
  let lit word v =
    if
      !pos + String.length word <= len
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit"
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
            if !pos >= len then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if !pos + 4 >= len then fail "bad unicode escape";
                let code =
                  (hex s.[!pos + 1] lsl 12)
                  lor (hex s.[!pos + 2] lsl 8)
                  lor (hex s.[!pos + 3] lsl 4)
                  lor hex s.[!pos + 4]
                in
                pos := !pos + 4;
                (* UTF-8 encode the BMP code point; protocol strings are
                   identifiers and workflow text, so this path is rare. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail "unsupported escape");
            advance ();
            go ()
        | _ ->
            (* Copy the run of plain bytes up to the next quote or
               backslash in one call. *)
            let start = !pos in
            while !pos < len && (match s.[!pos] with '"' | '\\' -> false | _ -> true) do
              advance ()
            done;
            Buffer.add_substring b s start (!pos - start);
            go ()
    in
    go ();
    Buffer.contents b
  in
  (* [depth]: the containers open around this value. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some ('{' | '[') when depth >= max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_value (depth + 1) in
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
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elems acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elems [])
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') ->
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
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "malformed number")
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> len then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse msg -> Error msg

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number_to_string f =
  if Float.is_nan f || f = infinity || f = neg_infinity then
    (* JSON has no non-finite numbers; "inf"/"nan" would not re-parse.
       Serialize them as null (like browsers' JSON.stringify) so
       [to_string] always emits valid JSON. *)
    "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* Shortest representation that round-trips exactly. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v) kvs)
      ^ "}"

(* Accessors: [None] on a missing key or a kind mismatch. *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e9 ->
      Some (int_of_float f)
  | _ -> None

let str_member key j = Option.bind (member key j) to_str
let bool_member key j = Option.bind (member key j) to_bool
let float_member key j = Option.bind (member key j) to_float
let int_member key j = Option.bind (member key j) to_int
