"""``Op`` hashes by identity: exact for singleton members, and it must
survive pickling, because the disk cache and the service's IPC both
carry Op-keyed ``opcode_counts``."""

import pickle
from collections import Counter

from repro.isa.instructions import CHERI_OPS, Op


def test_op_pickle_round_trip_is_the_same_member():
    for op in Op:
        assert pickle.loads(pickle.dumps(op)) is op


def test_op_hash_is_identity():
    assert all(hash(op) == object.__hash__(op) for op in Op)
    assert len({hash(op) for op in Op}) == len(Op)


def test_op_keyed_counter_survives_pickle():
    counts = Counter({Op.ADD: 3, Op.CLC: 2, Op.HALT: 1})
    restored = pickle.loads(pickle.dumps(counts))
    assert restored == counts
    assert restored[Op.ADD] == 3 and restored[Op.CLC] == 2
    assert restored[Op.SUB] == 0
    restored[Op.HALT] += 1
    assert restored[Op.HALT] == 2
    assert set(restored) & CHERI_OPS == {Op.CLC}


def test_op_keyed_counter_from_another_process():
    """Identity hashes differ between processes; a Counter pickled in
    one (as a disk-cache entry or a service payload is) must still look
    up by Op in another."""
    import os
    import subprocess
    import sys

    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = ("import pickle, sys\n"
            "from collections import Counter\n"
            "from repro.isa.instructions import Op\n"
            "sys.stdout.buffer.write(pickle.dumps("
            "Counter({Op.ADD: 3, Op.CSC: 5})))\n")
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src)
    payload = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True).stdout
    restored = pickle.loads(payload)
    assert restored[Op.ADD] == 3 and restored[Op.CSC] == 5
    assert restored == Counter({Op.CSC: 5, Op.ADD: 3})
