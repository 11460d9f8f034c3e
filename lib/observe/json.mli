(** A minimal, dependency-free JSON value type with a printer and parser.

    Exists so the observability layer can emit (and golden tests can
    re-read) Chrome traces, and the daemon can speak its wire protocol,
    without adding a JSON dependency the container may not have. It covers the
    JSON this repo produces — objects, arrays, strings with escapes,
    ints, floats, booleans, null — not the full horror of the spec
    (surrogate pairs decode to U+FFFD). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces. Floats
    print via ["%.12g"] (with a trailing [".0"] re-added to integral
    floats so they re-parse as floats); NaN/infinities print as [null],
    as in every browser. *)

val default_max_depth : int
(** The nesting-depth bound {!of_string} applies when none is given
    ([512]). Deep enough for any document this repo produces, shallow
    enough that a hostile ["[[[[…"] can never blow the parser's stack. *)

val of_string : ?max_depth:int -> ?max_size:int -> string -> (t, string) result
(** Parses one JSON value (trailing garbage is an error). Errors carry
    the byte offset. Numbers without [.], [e] or [E] parse as [Int].

    Hostile-input bounds: a value nested deeper than [max_depth]
    (default {!default_max_depth}) is rejected with a descriptive error
    instead of risking a stack overflow, and when [max_size] is given,
    inputs longer than that many bytes are rejected before any parsing
    work is done. The network server parses every frame with both bounds
    set; trusted local files use the defaults. *)

val to_file : string -> t -> unit

val of_file : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup; [None] on non-objects and missing keys. *)
