(** Compact binary wire format for games, class games and mutation logs.

    The binary companion to {!Model.Game_io}'s text format: every
    payload starts with the 4-byte magic ["SRWF"], a little-endian
    [u16] format version and a [u8] payload kind, followed by a
    length-prefixed little-endian body.  There are three payload
    kinds: a per-user game (kind byte 1), a class game (2) and a
    mutation log (5); bytes 3 and 4 are unassigned and decode as an
    unknown kind.  Scalars are exact rationals
    encoded as two arbitrary-precision integers (sign byte, [u32] byte
    count, minimal little-endian magnitude), so the encoding is
    lossless: decoding an encoded value is the identity, and
    re-encoding a decoded payload reproduces the input bytes.

    Both game kinds encode {!Model.Game_io}'s reduced-form
    {!Model.Game_io.table}, the one the text writers print: a
    backend byte, the entry and link counts, class counts (class games
    only — a per-user game is the count-less case), weights, presence
    probabilities (participation only), then one row per entry — the
    effective capacities, or [lo hi] pairs under strict.  That form is
    faithful to every latency and byte-stable under round-trips through
    the text parser.  Games mixing uncertainty backends across users
    have no wire form.

    Decoders validate eagerly and raise [Invalid_argument] with
    offset-numbered messages in {!Model.Game_io}'s style:
    ["Wire: offset <n>: ..."] — truncated input, bad magic, unsupported
    version, unknown or mismatched payload kind, malformed integers,
    non-canonical rationals (not in lowest terms, or zero other than
    [0/1]) and trailing bytes are all pinned errors.  Rejected tables
    raise ["Wire: <reason>"] from the shared game construction. *)

type kind = Game | Cgame | Log

(** [is_wire s] holds when [s] starts with the wire {!magic} — the
    cheap test CLI tools use to tell binary payloads from text files. *)
val is_wire : string -> bool

(** [peek_kind s] validates the header only (magic, version) and
    returns the payload kind without decoding the body. *)
val peek_kind : string -> kind

val encode_game : Model.Game.t -> string
val decode_game : string -> Model.Game.t
val encode_cgame : Model.Cgame.t -> string
val decode_cgame : string -> Model.Cgame.t
val encode_log : Mutation.log -> string
val decode_log : string -> Mutation.log
