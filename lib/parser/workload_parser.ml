open Vp_core

type error = { line : int; token : string option; message : string }

let pp_error ppf e =
  match e.token with
  | None -> Format.fprintf ppf "line %d: %s" e.line e.message
  | Some tok -> Format.fprintf ppf "line %d: %s (at %S)" e.line e.message tok

exception Parse_error of error

let fail line fmt =
  Format.kasprintf
    (fun message -> raise (Parse_error { line; token = None; message }))
    fmt

let fail_at line token fmt =
  Format.kasprintf
    (fun message -> raise (Parse_error { line; token = Some token; message }))
    fmt

(* --- tokenizer --- *)

type token =
  | Ident of string
  | Number of string
  | Lparen
  | Rparen
  | Comma
  | Semicolon
  | Star
  | Operator of string  (** =, <, >, <=, >=, <>, +, -, /, string literals *)

type lexed = { token : token; line : int }

(* The offending token's source text, for error messages. *)
let token_text = function
  | Ident s -> s
  | Number s -> s
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Semicolon -> ";"
  | Star -> "*"
  | Operator s -> s

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let tokenize input =
  let tokens = ref [] in
  let line = ref 1 in
  let n = String.length input in
  let i = ref 0 in
  let push token = tokens := { token; line = !line } :: !tokens in
  while !i < n do
    let c = input.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && input.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' then (push Lparen; incr i)
    else if c = ')' then (push Rparen; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = ';' then (push Semicolon; incr i)
    else if c = '*' then (push Star; incr i)
    else if c = '\'' then begin
      (* string literal: swallowed as an operator-class token *)
      let start = !i in
      incr i;
      while !i < n && input.[!i] <> '\'' do
        if input.[!i] = '\n' then incr line;
        incr i
      done;
      if !i >= n then fail !line "unterminated string literal";
      incr i;
      push (Operator (String.sub input start (!i - start)))
    end
    else if (c >= '0' && c <= '9') then begin
      let start = !i in
      while
        !i < n
        && (let d = input.[!i] in
            (d >= '0' && d <= '9') || d = '.' || d = '_' || d = 'e' || d = 'E')
      do
        incr i
      done;
      push (Number (String.sub input start (!i - start)))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      push (Ident (String.sub input start (!i - start)))
    end
    else begin
      (* operator characters, possibly multi-char *)
      let start = !i in
      while
        !i < n
        && (match input.[!i] with
           | '=' | '<' | '>' | '!' | '+' | '-' | '/' | '%' | '.' -> true
           | _ -> false)
      do
        incr i
      done;
      if !i = start then fail !line "unexpected character %C" c;
      push (Operator (String.sub input start (!i - start)))
    end
  done;
  List.rev !tokens

(* --- parser --- *)

type state = { mutable rest : lexed list; mutable tables : (string * Table.t) list;
               mutable queries : (string * Query.t) list;  (* table, query *)
               mutable counter : int;
               mutable last_line : int  (* line of the last consumed token *) }

let peek st = match st.rest with [] -> None | t :: _ -> Some t

let next st =
  match st.rest with
  | [] -> fail st.last_line "unexpected end of input"
  | t :: rest ->
      st.rest <- rest;
      st.last_line <- t.line;
      t

let expect st pred description =
  let t = next st in
  if pred t.token then t
  else
    fail_at t.line (token_text t.token) "expected %s, got %S" description
      (token_text t.token)

let expect_kw st kw =
  ignore
    (expect st
       (function
         | Ident s -> String.uppercase_ascii s = kw
         | Number _ | Lparen | Rparen | Comma | Semicolon | Star | Operator _
           ->
             false)
       kw)

let ident st =
  let t = next st in
  match t.token with
  | Ident s -> (s, t.line)
  | Number _ | Lparen | Rparen | Comma | Semicolon | Star | Operator _ ->
      fail_at t.line (token_text t.token) "expected an identifier, got %S"
        (token_text t.token)

let integer st =
  let t = next st in
  match t.token with
  | Number s -> (
      match int_of_string_opt (String.concat "" (String.split_on_char '_' s)) with
      | Some v -> (v, t.line)
      | None -> fail_at t.line s "expected an integer, got %S" s)
  | Ident _ | Lparen | Rparen | Comma | Semicolon | Star | Operator _ ->
      fail_at t.line (token_text t.token) "expected an integer, got %S"
        (token_text t.token)

let datatype st line name =
  match String.uppercase_ascii name with
  | "INT" | "INTEGER" | "INT32" -> Attribute.Int32
  | "DECIMAL" | "NUMERIC" | "FLOAT" | "DOUBLE" -> Attribute.Decimal
  | "DATE" -> Attribute.Date
  | "CHAR" | "VARCHAR" -> (
      match peek st with
      | Some { token = Lparen; _ } ->
          ignore (next st);
          let width, _ = integer st in
          ignore (expect st (fun t -> t = Rparen) ")");
          if String.uppercase_ascii name = "CHAR" then Attribute.Char width
          else Attribute.Varchar width
      | _ -> fail line "%s requires a width, e.g. %s(25)" name name)
  | other -> fail_at line name "unknown type %S" other

let parse_create st =
  expect_kw st "TABLE";
  let table_name, name_line = ident st in
  ignore (expect st (fun t -> t = Lparen) "(");
  let columns = ref [] in
  let rec columns_loop () =
    let col_name, col_line = ident st in
    let ty_name, ty_line = ident st in
    let ty = datatype st ty_line ty_name in
    (* [Attribute.make] rejects zero/negative widths (e.g. CHAR(0)) and
       empty names; report those at the column, not as a crash. *)
    (match Attribute.make col_name ty with
    | attribute -> columns := attribute :: !columns
    | exception Invalid_argument m ->
        fail_at col_line col_name "invalid column %S: %s" col_name m);
    match next st with
    | { token = Comma; _ } -> columns_loop ()
    | { token = Rparen; _ } -> ()
    | { token; line } ->
        fail_at line (token_text token)
          "expected ',' or ')' in column list, got %S" (token_text token)
  in
  columns_loop ();
  let row_count =
    match peek st with
    | Some { token = Ident s; _ } when String.uppercase_ascii s = "ROWS" ->
        ignore (next st);
        fst (integer st)
    | _ -> 1_000_000
  in
  (match next st with
  | { token = Semicolon; _ } -> ()
  | { token; line } ->
      fail_at line (token_text token) "expected ';' after CREATE TABLE, got %S"
        (token_text token));
  if List.mem_assoc table_name st.tables then
    fail_at name_line table_name "table %S already defined" table_name;
  let table =
    try Table.make ~name:table_name ~attributes:(List.rev !columns) ~row_count
    with Invalid_argument m -> fail_at name_line table_name "%s" m
  in
  st.tables <- st.tables @ [ (table_name, table) ]

let parse_select st =
  (* SELECT <cols or star> FROM table <tail mentioning columns> [WEIGHT w] ; *)
  let start_line =
    match peek st with Some t -> t.line | None -> 0
  in
  let select_items = ref [] in
  let star = ref false in
  let rec select_list () =
    (match next st with
    | { token = Star; _ } -> star := true
    | { token = Ident s; _ } -> select_items := s :: !select_items
    | { token; line } ->
        fail_at line (token_text token)
          "expected a column name or * in SELECT list, got %S"
          (token_text token));
    match peek st with
    | Some { token = Comma; _ } ->
        ignore (next st);
        select_list ()
    | _ -> ()
  in
  select_list ();
  expect_kw st "FROM";
  let table_name, from_line = ident st in
  let table =
    match List.assoc_opt table_name st.tables with
    | Some t -> t
    | None -> fail_at from_line table_name "unknown table %S" table_name
  in
  (* Scan the statement tail: every identifier naming a column adds a
     reference; WEIGHT <num> sets the frequency. *)
  let weight = ref 1.0 in
  let extra = ref [] in
  let rec tail () =
    match next st with
    | { token = Semicolon; _ } -> ()
    | { token = Ident s; line } when String.uppercase_ascii s = "WEIGHT" -> (
        match next st with
        | { token = Number v; _ } -> (
            match float_of_string_opt v with
            | Some w when w > 0.0 && Float.is_finite w ->
                weight := w;
                tail ()
            | Some _ | None -> fail_at line v "invalid WEIGHT %S" v)
        | { token; line } ->
            fail_at line (token_text token) "WEIGHT requires a number, got %S"
              (token_text token))
    | { token = Ident s; _ } ->
        (match Table.position table s with
        | _ -> extra := s :: !extra
        | exception Not_found -> ());
        tail ()
    | _ -> tail ()
  in
  tail ();
  let named = if !star then [] else !select_items @ !extra in
  let references =
    if !star then Table.all_attributes table
    else
      try Table.attr_set_of_names table (List.sort_uniq compare named)
      with Not_found ->
        let missing =
          List.find
            (fun c -> match Table.position table c with
              | _ -> false
              | exception Not_found -> true)
            named
        in
        fail_at start_line missing "unknown column %S in table %S" missing
          table_name
  in
  if Attr_set.is_empty references then
    fail start_line "query references no column of %S" table_name;
  st.counter <- st.counter + 1;
  let q =
    Query.make ~weight:!weight
      ~name:(Printf.sprintf "Q%d" st.counter)
      ~references ()
  in
  st.queries <- st.queries @ [ (table_name, q) ]

let parse input =
  match
    let st =
      { rest = tokenize input; tables = []; queries = []; counter = 0;
        last_line = 1 }
    in
    let rec statements () =
      match peek st with
      | None -> ()
      | Some { token = Semicolon; _ } ->
          ignore (next st);
          statements ()
      | Some { token = Ident s; line } -> (
          ignore (next st);
          match String.uppercase_ascii s with
          | "CREATE" ->
              parse_create st;
              statements ()
          | "SELECT" ->
              (* push back handled inside parse_select via peek-free design:
                 parse_select expects the select list next. *)
              parse_select st;
              statements ()
          | other -> fail_at line s "expected CREATE or SELECT, got %S" other)
      | Some { token; line } ->
          fail_at line (token_text token) "expected a statement, got %S"
            (token_text token)
    in
    statements ();
    List.map
      (fun (name, table) ->
        try
          Workload.make table
            (List.filter_map
               (fun (t, q) -> if t = name then Some q else None)
               st.queries)
        with Invalid_argument m ->
          (* Belt-and-braces: the per-statement checks should reject any
             script [Workload.make] would, but a crash here must still
             surface as a parse error, not an exception. *)
          fail_at 0 name "invalid workload for table %S: %s" name m)
      st.tables
  with
  | workloads -> Ok workloads
  | exception Parse_error e -> Error e

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error m -> Error { line = 0; token = None; message = m }
