(** Gather writes over off-heap buffers — the live server's zero-copy
    send primitive (paper §5.5).

    A {!slice} points into a {!bigstring} (a char Bigarray: stable,
    off-heap storage, which is also what [Unix.map_file] returns), so a
    response can be described as [header slice; body slice] and handed
    to the kernel in a single [writev(2)] without concatenating — and,
    for mmap-backed bodies, without ever copying the payload through
    userspace.

    Two send paths are exposed and selectable at run time:
    - {!writev}: the C stub over [writev(2)] (available when
      {!have_writev});
    - {!writev_copy}: a portable pure-OCaml fallback that copies the
      slices into a scratch buffer and issues one scalar [Unix.write] —
      the measured baseline the gather path is compared against. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A window into a buffer.  [off]/[len] are advanced in place as bytes
    drain, so a partial write resumes without re-slicing. *)
type slice = { buf : bigstring; mutable off : int; mutable len : int }

(** [true] when the [writev(2)] C stub is usable on this platform. *)
val have_writev : bool

(** Most slices a single {!writev} call will submit; longer gathers are
    sent over several calls. *)
val max_iovecs : int

val create : int -> bigstring

(** Copying conversions (each counts as a userspace copy to callers that
    track them). *)
val of_string : string -> bigstring

val of_bytes : Bytes.t -> len:int -> bigstring

(** [sub_string buf ~off ~len] copies a window out (tests, diagnostics). *)
val sub_string : bigstring -> off:int -> len:int -> string

(** Fresh slice over [buf]; default the whole buffer.
    @raise Invalid_argument on out-of-range windows. *)
val slice : ?off:int -> ?len:int -> bigstring -> slice

(** [resident buf]: every page of the mapping [buf] is in the page
    cache now, so reading it cannot block on disk — the [mincore(2)]
    test AMPED's event loop makes before serving a miss itself (paper
    §3.4).  It touches no page.  An empty buffer is resident; a buffer
    not starting on a page boundary (a heap copy rather than a
    mapping), an error, or a platform without [mincore] answers
    [false]. *)
val resident : bigstring -> bool

(** Remaining bytes across an array of slices. *)
val total_length : slice array -> int

(** Consume [n] bytes from the front of [slices], advancing offsets in
    place (the partial-write resumption step). *)
val advance : slice array -> int -> unit

(** Gather-write the slices to [fd] in one [writev(2)]; returns bytes
    written.  Raises [Unix.Unix_error] exactly like [Unix.write]
    (EAGAIN/EWOULDBLOCK on a drained non-blocking socket).
    @raise Failure when {!have_writev} is false. *)
val writev : Unix.file_descr -> slice array -> int

(** Portable fallback: copy the slices into [scratch] (up to its
    capacity) and issue one scalar [Unix.write].  Returns
    [(bytes_written, bytes_copied)]; a caller sees a partial write as
    [bytes_written < bytes_copied]. *)
val writev_copy : scratch:Bytes.t -> Unix.file_descr -> slice array -> int * int
