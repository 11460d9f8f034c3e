type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else begin
    let s = Printf.sprintf "%.12g" f in
    (* Keep integral floats parseable as floats. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            go (depth + 1) item)
          items;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            if pretty then begin
              Buffer.add_char buf '\n';
              indent (depth + 1)
            end;
            escape buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            go (depth + 1) item)
          fields;
        if pretty then begin
          Buffer.add_char buf '\n';
          indent depth
        end;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* --- parsing: plain recursive descent over the string --- *)

exception Fail of int * string

let default_max_depth = 512

let of_string ?(max_depth = default_max_depth) ?max_size s =
  let n = String.length s in
  let pos = ref 0 in
  let oversized =
    match max_size with
    | Some limit when n > limit ->
        Some
          (Printf.sprintf "input of %d bytes exceeds the %d-byte limit" n
             limit)
    | Some _ | None -> None
  in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let utf8 buf cp =
    (* Encode one scalar value; surrogates degrade to U+FFFD. *)
    let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' -> utf8 buf (try hex4 () with _ -> fail "bad \\u escape")
              | c -> fail (Printf.sprintf "bad escape \\%C" c));
              go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text in
    if floaty then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value depth =
    if depth > max_depth then
      fail
        (Printf.sprintf "nesting depth exceeds the maximum of %d" max_depth);
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match oversized with
  | Some msg -> Error (Printf.sprintf "JSON parse error: %s" msg)
  | None -> (
      match
        let v = parse_value 0 in
        skip_ws ();
        if !pos <> n then fail "trailing characters after value";
        v
      with
      | v -> Ok v
      | exception Fail (at, msg) ->
          Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg))

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ~pretty:true v);
      output_char oc '\n')

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string (String.trim contents)
  | exception Sys_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- bidirectional descriptions --- *)

module Codec = struct
  type json = t

  type reason =
    | Missing of string
    | Type of string
    | Range of int option * int option
    | Invalid of string

  type error = { path : string list; reason : reason }

  exception Error of error

  let error_message { path; reason } =
    let p =
      String.concat ""
        (List.mapi (fun i s -> if i = 0 || s.[0] = '[' then s else "." ^ s) path)
    in
    let bound = function Some b -> string_of_int b | None -> "" in
    match reason with
    | Missing (("string" | "integer") as kind) ->
        Printf.sprintf "missing or non-%s field %S" kind p
    | Missing _ -> Printf.sprintf "missing field %S" p
    | Type kind when path = [] -> Printf.sprintf "expected a JSON %s" kind
    | Type kind ->
        let article = if String.contains "aeiou" kind.[0] then "an" else "a" in
        Printf.sprintf "field %S must be %s %s" p article kind
    | Range (lo, None) -> Printf.sprintf "%S must be >= %s" p (bound lo)
    | Range (None, hi) -> Printf.sprintf "%S must be <= %s" p (bound hi)
    | Range (lo, hi) -> Printf.sprintf "%S must be in %s .. %s" p (bound lo) (bound hi)
    | Invalid msg -> msg

  let reject reason = raise (Error { path = []; reason })

  let fail fmt = Printf.ksprintf (fun msg -> reject (Invalid msg)) fmt

  type 'a t = { kind : string; encode : 'a -> json; decode : json -> 'a }

  let encode c v = c.encode v

  let decode c j = c.decode j

  (* [decode bad] reads a value, calling [bad ()] on a JSON type it
     does not take. *)
  let leaf kind encode decode =
    { kind; encode; decode = decode (fun () -> reject (Type kind)) }

  let string = leaf "string" (fun s -> String s) (fun bad -> function String s -> s | _ -> bad ())

  let bool = leaf "boolean" (fun b -> Bool b) (fun bad -> function Bool b -> b | _ -> bad ())

  let int = leaf "integer" (fun i -> Int i) (fun bad -> function Int i -> i | _ -> bad ())

  let int_in ?(min = min_int) ?(max = max_int) () =
    let bound b limit = if b = limit then None else Some b in
    let decode j =
      let i = int.decode j in
      if i < min || i > max then reject (Range (bound min min_int, bound max max_int))
      else i
    in
    { int with decode }

  let number =
    leaf "number" (fun f -> Float f) (fun bad -> function
      | Float f -> f | Int i -> float_of_int i | _ -> bad ())

  let float_bits =
    leaf "float bit pattern"
      (fun f -> String (Printf.sprintf "%Lx" (Int64.bits_of_float f)))
      (fun bad -> function
        | String s -> (
            match Int64.of_string_opt ("0x" ^ s) with
            | Some b -> Int64.float_of_bits b
            | None -> bad ())
        | _ -> bad ())

  let nullable c =
    let encode = function Some v -> c.encode v | None -> Null in
    { kind = c.kind; encode; decode = (function Null -> None | j -> Some (c.decode j)) }

  let enum ~what cases =
    leaf "string"
      (fun v -> String (fst (List.find (fun (_, v') -> v' = v) cases)))
      (fun bad -> function
        | String s -> (
            match List.assoc_opt s cases with
            | Some v -> v
            | None -> fail "unknown %s %S" what s)
        | _ -> bad ())

  (* Errors gain their path on the way out, one segment per level. *)
  let within seg c j =
    try c.decode j with Error e -> raise (Error { e with path = seg :: e.path })

  let list c =
    let element i j =
      try c.decode j
      with Error e -> raise (Error { e with path = Printf.sprintf "[%d]" i :: e.path })
    in
    leaf "array" (fun l -> List (List.map c.encode l)) (fun bad -> function
      | List l -> List.mapi element l
      | _ -> bad ())

  let assoc c =
    leaf "object" (fun kvs -> Obj (List.map (fun (k, v) -> (k, c.encode v)) kvs)) (fun bad ->
      function Obj fields -> List.map (fun (k, j) -> (k, within k c j)) fields | _ -> bad ())

  (* [enc o tail] puts this description's members in front of [tail]. *)
  type ('o, 'f) members = {
    enc : 'o -> (string * json) list -> (string * json) list;
    dec : (string * json) list -> 'f;
  }

  let obj f = { enc = (fun _ tail -> tail); dec = (fun _ -> f) }

  let member name put take m =
    {
      enc = (fun o tail -> m.enc o (put o tail));
      dec = (fun fields -> let f = m.dec fields in f (take (List.assoc_opt name fields)));
    }

  (* A required member of the wrong scalar or array type reads as
     missing, so those errors keep the wording of an absent field. *)
  let field name c get =
    member name (fun o tail -> (name, c.encode (get o)) :: tail) (function
      | None -> raise (Error { path = [ name ]; reason = Missing c.kind })
      | Some j -> (
          try c.decode j with
          | Error { path = []; reason = Type ("string" | "integer" | "array" as k) } ->
              raise (Error { path = [ name ]; reason = Missing k })
          | Error e -> raise (Error { e with path = name :: e.path })))

  let dft name c default get =
    member name (fun o tail -> (name, c.encode (get o)) :: tail) (function
      | None -> default
      | Some j -> within name c j)

  let opt name c get =
    member name
      (fun o tail -> match get o with Some v -> (name, c.encode v) :: tail | None -> tail)
      (function None -> None | Some j -> Some (within name c j))

  let const name v m = { m with enc = (fun o tail -> m.enc o ((name, v) :: tail)) }

  let inline inner get m =
    {
      enc = (fun o tail -> m.enc o (inner.enc (get o) tail));
      dec = (fun fields -> let f = m.dec fields in f (inner.dec fields));
    }

  let seal m =
    leaf "object" (fun o -> Obj (m.enc o [])) (fun bad -> function
      | Obj fields -> m.dec fields | _ -> bad ())
end
