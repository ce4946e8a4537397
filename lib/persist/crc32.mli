(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the
    integrity checksum for WAL record framing and snapshot files.
    Matches zlib's [crc32]: [digest "123456789" = 0xCBF43926]. *)

val digest : string -> int
(** [digest s] is the CRC-32 of [s], a non-negative int in [0, 2^32). *)
