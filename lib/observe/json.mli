(** A minimal, dependency-free JSON value type with a printer, a parser
    and {!Codec}, the one description each wire and disk shape has.

    Exists so the observability layer can emit (and golden tests can
    re-read) Chrome traces, and the daemon can speak its wire protocol
    and keep its files, without adding a JSON dependency. It covers the
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

(** One description per JSON shape, read both ways: {!Codec.encode}
    and {!Codec.decode} both derive from a ['a Codec.t], so an encoder
    cannot drift from its decoder. An object is described member by
    member, in output order, from the function that builds the value:
    {[
      Codec.(seal (obj (fun x y -> { x; y })
                   |> field "x" int (fun p -> p.x)
                   |> dft "y" int 0 (fun p -> p.y)))
    ]}
    Decoding reads the members in the same order, so the first defect in
    member order is the one reported. *)
module Codec : sig
  type json := t

  type reason =
    | Missing of string
        (** A required member is absent, or (string, integer and array
            members) of another JSON type; names the expected kind. *)
    | Type of string  (** Present with the wrong JSON type. *)
    | Range of int option * int option  (** An integer outside its bounds. *)
    | Invalid of string  (** Any other rejection, with its whole message. *)

  type error = { path : string list; reason : reason }
  (** [path] runs outermost first: member names, and [[i]] for list
      elements. *)

  exception Error of error

  val error_message : error -> string
  (** One line: [missing or non-string field "session"],
      [missing field "table"], [field "buffer_mb" must be a number],
      ["ms" must be in 0 .. 60000]. A nested field reads by its path
      ([field "queries[0].weight" must be a number]); an [Invalid]
      message is returned as is. *)

  val fail : ('a, unit, string, 'b) format4 -> 'a
  (** Raises an [Invalid] error (a build function's own checks). *)

  type 'a t

  val encode : 'a t -> 'a -> json

  val decode : 'a t -> json -> 'a
  (** @raise Error on a document that does not fit. *)

  val string : string t

  val bool : bool t

  val int : int t

  val int_in : ?min:int -> ?max:int -> unit -> int t

  val number : float t
  (** Decimal (decoding also takes an integer); {!to_string} keeps 12
      significant digits. *)

  val float_bits : float t
  (** The hex string of the IEEE-754 bits: exact for every value. *)

  val nullable : 'a t -> 'a option t

  val enum : what:string -> (string * 'a) list -> 'a t
  (** Another string fails with [unknown <what> "<s>"]. *)

  val list : 'a t -> 'a list t

  val assoc : 'a t -> (string * 'a) list t
  (** An object read as its members in order, every value of one kind:
      a [stats] reply's counters. *)

  type ('o, 'f) members
  (** Members of an object holding an ['o]; ['f] is what the build
      function still awaits. *)

  val obj : 'f -> ('o, 'f) members

  val field : string -> 'a t -> ('o -> 'a) -> ('o, 'a -> 'f) members -> ('o, 'f) members

  val dft : string -> 'a t -> 'a -> ('o -> 'a) -> ('o, 'a -> 'f) members -> ('o, 'f) members
  (** Always written; the default when absent. *)

  val opt :
    string -> 'a t -> ('o -> 'a option) -> ('o, 'a option -> 'f) members -> ('o, 'f) members
  (** Written when [Some]; [None] when absent. *)

  val const : string -> json -> ('o, 'f) members -> ('o, 'f) members
  (** Written, never read: a frame's ["op"]. *)

  val inline : ('i, 'i) members -> ('o -> 'i) -> ('o, 'i -> 'f) members -> ('o, 'f) members
  (** Another description's members, flat in this object. *)

  val seal : ('o, 'o) members -> 'o t
end
