"""A cgroup-v1-style control-group tree with cpuset semantics.

The paper's Holmes detects batch jobs by watching cgroup directories
created by the Yarn NodeManager (one directory per container, under a
common batch parent), and constrains them by writing cpuset files.  This
module models exactly that surface: a path-addressed tree, each node with
an optional cpuset and a set of member processes.  Setting a cpuset
reapplies affinity to member threads, with inheritance for groups that
don't set their own.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.oskernel.process import OSProcess
    from repro.oskernel.system import System


class CgroupError(OSError):
    """A cgroup write or attach failed (modelled EBUSY, e.g. a write
    racing container teardown under fault injection)."""


class Cgroup:
    """One node of the cgroup tree."""

    def __init__(self, fs: "CgroupFS", name: str, parent: Optional["Cgroup"]):
        self.fs = fs
        self.name = name
        self.parent = parent
        self.children: dict[str, Cgroup] = {}
        self.processes: list["OSProcess"] = []
        self._cpuset: Optional[frozenset[int]] = None
        self.created_at = fs.system.env.now if fs.system else 0.0

    @property
    def path(self) -> str:
        if self.parent is None:
            return "/"
        prefix = self.parent.path
        return prefix + self.name if prefix == "/" else prefix + "/" + self.name

    @property
    def cpuset(self) -> Optional[frozenset[int]]:
        return self._cpuset

    def effective_cpuset(self) -> Optional[frozenset[int]]:
        """Own cpuset if set, else nearest ancestor's (None = unconstrained)."""
        node: Optional[Cgroup] = self
        while node is not None:
            if node._cpuset is not None:
                return node._cpuset
            node = node.parent
        return None

    def pids(self) -> list[int]:
        return [p.pid for p in self.processes]

    def attach(self, process: "OSProcess") -> None:
        """Move a process into this group, applying the effective cpuset."""
        self.fs.maybe_fail("attach", self.path)
        if process.cgroup is not None:
            process.cgroup.detach(process)
        self.processes.append(process)
        process.cgroup = self
        cpus = self.effective_cpuset()
        if cpus is not None:
            process.set_affinity(cpus)

    def detach(self, process: "OSProcess") -> None:
        if process in self.processes:
            self.processes.remove(process)
            process.cgroup = None

    def set_cpuset(self, cpus: Optional[Iterable[int]]) -> None:
        """Write the cpuset file; reapplies affinity down the subtree."""
        self.fs.maybe_fail("write", self.path)
        if cpus is not None:
            cpus = frozenset(cpus)
            if not cpus:
                raise ValueError(f"cgroup {self.path}: empty cpuset")
            n = self.fs.system.server.topology.n_lcpus
            bad = [c for c in cpus if not 0 <= c < n]
            if bad:
                raise ValueError(f"cgroup {self.path}: invalid cpus {bad}")
        self._cpuset = cpus
        self._reapply()

    def _reapply(self) -> None:
        cpus = self.effective_cpuset()
        if cpus is not None:
            for p in self.processes:
                p.set_affinity(cpus)
        for child in self.children.values():
            if child._cpuset is None:  # inherits from us
                child._reapply()

    def walk(self):
        """Depth-first iteration over this subtree (self included)."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cgroup {self.path} pids={self.pids()}>"


class CgroupFS:
    """The mounted cgroup hierarchy."""

    def __init__(self, system: Optional["System"] = None):
        self.system = system
        self.root = Cgroup(self, "", None)
        #: optional ``fn(op, path) -> bool`` consulted before writes and
        #: attaches; returning True fails the operation with
        #: :class:`CgroupError`.  The fault injector's hook point.
        self.fault_hook = None

    def maybe_fail(self, op: str, path: str) -> None:
        hook = self.fault_hook
        if hook is not None and hook(op, path):
            raise CgroupError(f"cgroup {op} failed (EBUSY): {path}")

    def _resolve(self, path: str) -> list[str]:
        if not path.startswith("/"):
            raise ValueError(f"cgroup path must be absolute: {path!r}")
        return [part for part in path.split("/") if part]

    def create(self, path: str) -> Cgroup:
        """mkdir -p semantics."""
        node = self.root
        for part in self._resolve(path):
            if part not in node.children:
                node.children[part] = Cgroup(self, part, node)
            node = node.children[part]
        return node

    def get(self, path: str) -> Cgroup:
        node = self.root
        for part in self._resolve(path):
            try:
                node = node.children[part]
            except KeyError:
                raise KeyError(f"no such cgroup: {path!r}") from None
        return node

    def exists(self, path: str) -> bool:
        try:
            self.get(path)
            return True
        except KeyError:
            return False

    def remove(self, path: str) -> None:
        """rmdir; refuses to remove non-empty or populated groups."""
        node = self.get(path)
        if node is self.root:
            raise ValueError("cannot remove the cgroup root")
        if node.children:
            raise ValueError(f"cgroup {path!r} has children")
        if node.processes:
            raise ValueError(f"cgroup {path!r} still has member processes")
        del node.parent.children[node.name]

    def list_children(self, path: str) -> list[str]:
        """Names of child groups -- what Holmes' directory scan sees."""
        return sorted(self.get(path).children)
