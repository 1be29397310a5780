"""The shared catalog.

Every table known to the federation has exactly one
:class:`TableDescriptor` here, tagged with its placement:

* ``DB2_ONLY`` — data lives only in the DB2 row store;
* ``ACCELERATED`` — system of record in DB2, maintained snapshot copy on
  the accelerator (classic IDAA acceleration);
* ``ACCELERATOR_ONLY`` — the paper's AOT: data lives only on the
  accelerator, DB2 keeps this descriptor as the proxy/nickname.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.catalog.privileges import PrivilegeManager
from repro.catalog.schema import TableSchema
from repro.errors import DuplicateObjectError, UnknownObjectError

__all__ = [
    "TableLocation",
    "TableDescriptor",
    "ViewDescriptor",
    "User",
    "Catalog",
]


class TableLocation(Enum):
    DB2_ONLY = "DB2_ONLY"
    ACCELERATED = "ACCELERATED"
    ACCELERATOR_ONLY = "ACCELERATOR_ONLY"


@dataclass
class TableDescriptor:
    """Catalog entry for a table; doubles as the AOT nickname.

    For ``ACCELERATOR_ONLY`` tables this descriptor *is* the DB2-side proxy
    the paper describes: DB2 stores the metadata and uses the entry to
    delegate any statement on the table to the accelerator.
    """

    name: str
    schema: TableSchema
    location: TableLocation = TableLocation.DB2_ONLY
    distribute_on: Optional[list[str]] = None
    owner: str = "SYSADM"

    @property
    def is_aot(self) -> bool:
        return self.location is TableLocation.ACCELERATOR_ONLY

    @property
    def is_accelerated(self) -> bool:
        """True when the accelerator holds this table's data (copy or AOT)."""
        return self.location in (
            TableLocation.ACCELERATED,
            TableLocation.ACCELERATOR_ONLY,
        )

    @property
    def db2_resident(self) -> bool:
        """True when DB2 holds the data (system of record)."""
        return self.location in (
            TableLocation.DB2_ONLY,
            TableLocation.ACCELERATED,
        )


@dataclass
class ViewDescriptor:
    """A DB2-side view: stored query text + parsed form, no data."""

    name: str
    query: object  # ast.SelectStatement (kept loose to avoid the import)
    owner: str = "SYSADM"


@dataclass
class User:
    """A database user; ``is_admin`` models SYSADM authority."""

    name: str
    is_admin: bool = False


class Catalog:
    """Name → descriptor maps for tables and users, plus privileges."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDescriptor] = {}
        self._views: dict[str, ViewDescriptor] = {}
        self._users: dict[str, User] = {}
        # Accelerator partitioning specs, keyed by table name. Kept
        # opaque here (the catalog layers below repro.shard); the
        # accelerator engine interprets them. DB2-side metadata, so a declared DISTRIBUTE BY
        # survives an accelerator crash and drives the rebuilt placement.
        self._partition_specs: dict[str, object] = {}
        self.privileges = PrivilegeManager()
        #: Bumped on any DDL that can change a statement's plan (create/
        #: drop of tables or views, placement moves). Cached plans record
        #: the generation they were compiled under and are discarded when
        #: it no longer matches. Privilege changes do NOT bump it:
        #: authorisation is checked on every execution, cached or not.
        self.generation = 0
        # SYSADM always exists; it owns DDL in examples and tests.
        self.create_user("SYSADM", is_admin=True)

    # -- tables -------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        location: TableLocation = TableLocation.DB2_ONLY,
        distribute_on: Optional[list[str]] = None,
        owner: str = "SYSADM",
    ) -> TableDescriptor:
        key = name.upper()
        if key in self._tables:
            raise DuplicateObjectError(f"table {key} already exists")
        if key in self._views:
            raise DuplicateObjectError(f"{key} already exists as a view")
        descriptor = TableDescriptor(
            name=key,
            schema=schema,
            location=location,
            distribute_on=distribute_on,
            owner=owner.upper(),
        )
        self._tables[key] = descriptor
        self.generation += 1
        return descriptor

    def drop_table(self, name: str) -> TableDescriptor:
        key = name.upper()
        descriptor = self.table(key)
        del self._tables[key]
        self._partition_specs.pop(key, None)
        self.privileges.drop_object("TABLE", key)
        self.generation += 1
        return descriptor

    def table(self, name: str) -> TableDescriptor:
        key = name.upper()
        try:
            return self._tables[key]
        except KeyError:
            raise UnknownObjectError(f"unknown table {key}") from None

    def has_table(self, name: str) -> bool:
        return name.upper() in self._tables

    def tables(self) -> list[TableDescriptor]:
        return sorted(self._tables.values(), key=lambda d: d.name)

    def set_location(self, name: str, location: TableLocation) -> None:
        self.table(name).location = location
        self.generation += 1

    def set_partition_spec(self, name: str, spec: object) -> None:
        """Record how an accelerated table distributes over pool shards."""
        key = self.table(name).name  # raises for unknown tables
        self._partition_specs[key] = spec
        self.generation += 1  # placement move: cached plans are stale

    def partition_spec(self, name: str) -> Optional[object]:
        return self._partition_specs.get(name.upper())

    # -- views ---------------------------------------------------------------

    def create_view(self, name: str, query, owner: str = "SYSADM"):
        key = name.upper()
        if key in self._views:
            raise DuplicateObjectError(f"view {key} already exists")
        if key in self._tables:
            raise DuplicateObjectError(f"{key} already exists as a table")
        descriptor = ViewDescriptor(name=key, query=query, owner=owner.upper())
        self._views[key] = descriptor
        self.generation += 1
        return descriptor

    def drop_view(self, name: str) -> "ViewDescriptor":
        key = name.upper()
        descriptor = self.view(key)
        del self._views[key]
        self.privileges.drop_object("TABLE", key)  # view grants share the space
        self.generation += 1
        return descriptor

    def view(self, name: str) -> "ViewDescriptor":
        key = name.upper()
        try:
            return self._views[key]
        except KeyError:
            raise UnknownObjectError(f"unknown view {key}") from None

    def has_view(self, name: str) -> bool:
        return name.upper() in self._views

    def views(self) -> list["ViewDescriptor"]:
        return sorted(self._views.values(), key=lambda d: d.name)

    # -- users ---------------------------------------------------------------

    def create_user(self, name: str, is_admin: bool = False) -> User:
        key = name.upper()
        if key in self._users:
            raise DuplicateObjectError(f"user {key} already exists")
        user = User(name=key, is_admin=is_admin)
        self._users[key] = user
        return user

    def user(self, name: str) -> User:
        key = name.upper()
        try:
            return self._users[key]
        except KeyError:
            raise UnknownObjectError(f"unknown user {key}") from None

    def has_user(self, name: str) -> bool:
        return name.upper() in self._users
