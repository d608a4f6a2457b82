(** Graphviz (DOT) export of hypergraphs.

    Relations become ellipse nodes; every non-simple hyperedge becomes
    a small box node connected to all its members, with [u]-side links
    drawn solid, [v]-side links drawn solid on the other end and
    [w]-links dashed (the "either side" relations of Section 6). *)

val escape_label : string -> string
(** The body of a DOT double-quoted string: escapes backslashes,
    double quotes and line breaks.  Every label interpolation in this
    library's DOT emitters (here, [Plans.Plan_dot], the inspect
    lattice) routes user-controlled text — relation names above all —
    through this. *)

val write_atomically : string -> (out_channel -> unit) -> unit
(** [write_atomically path body] writes through a temporary file in
    the same directory and renames it over [path] on success, so a
    crash mid-write cannot leave a truncated file at the
    destination.  On exception the temporary file is removed and the
    destination is untouched. *)

val to_dot : ?name:string -> Graph.t -> string
(** A complete [graph { ... }] document. *)

val write_file : string -> Graph.t -> unit
(** Write {!to_dot} output to the given path, via temp-file + rename
    so a crashed run never leaves a truncated document behind. *)
