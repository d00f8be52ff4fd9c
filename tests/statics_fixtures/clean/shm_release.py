"""Known-clean: a class that owns many segments and unlinks them at two
sites — one at a time as each stops being needed (``release``), and
whatever is left at teardown (``close``, through ``release``) — the
sweep pool's ``SharedDatasetCache`` shape. The creation site binds a
local that the failure branch unlinks; on success the segment moves
into the registry the two methods drain.

Parsed by the rule tests; must produce zero findings.
"""

import atexit
from multiprocessing import shared_memory


class SegmentRegistry:
    def __init__(self):
        self._segments = {}
        atexit.register(self.close)

    def publish(self, key, payload):
        shm = shared_memory.SharedMemory(create=True, size=len(payload))
        try:
            shm.buf[: len(payload)] = payload
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        self._segments[key] = shm
        return shm.name

    def release(self, key):
        """Unlink one segment while the others stay published."""
        shm = self._segments.pop(key, None)
        if shm is None:
            return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def close(self):
        for key in list(self._segments):
            self.release(key)
        atexit.unregister(self.close)
