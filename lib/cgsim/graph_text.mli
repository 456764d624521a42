(** Textual dump of serialized compute graphs.

    The flattened graph form ({!Serialized.t}) is plain data — the whole
    point of the paper's constexpr-variable design is that it crosses
    tool boundaries.  This module prints it in a stable, human-readable
    syntax, so [cgx dump] can show a graph and two graphs can be
    golden-tested or diffed.  It is write-only: nothing reads the format
    back.

    The format is line-oriented:

    {v
    cgsim-graph 1
    graph farrow
    kernel farrow_stage1_0 farrow_stage1 aie
      port in in i16 window:4096
      port c01 out v2i16 stream
      nets 1 2
    net 0 i16 transport=rtp
      input d
    net 2 v2i16 transport=stream
      writer 0.1
      reader 1.0
      attr plio_name str bitonic_out
    inputs 0 1
    outputs 4
    v}

    The output is canonical: one graph prints one way, so a golden test
    pins it byte for byte. *)

val to_string : Serialized.t -> string

(** Dtype spellings used by the format ("f32", "v16f32",
    "{a:f32;b:i32}"). *)
val dtype_to_string : Dtype.t -> string
