"""The MPC model's capacity error."""


class MachineMemoryError(RuntimeError):
    """Raised when a machine would exceed its memory, or when a round's
    send/receive volume exceeds the per-round communication limit (which the
    MPC model ties to the memory size).

    The enforced backends raise it: :class:`~repro.mpc.backends.ShardedBackend`
    and the pools built on it, whose capped fleets cannot place data beyond
    ``max_shards × shard_memory``."""
