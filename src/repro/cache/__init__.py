"""Cache replacement schemes and the bounded storage-area manager
(paper Sec. III-D)."""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "arc": ("ARCPolicy",),
    "base": ("CacheStats", "ReplacementPolicy", "make_policy"),
    "cost_aware": ("BCLPolicy", "DCLPolicy"),
    "lirs": ("LIRSPolicy",),
    "lru": ("LRUPolicy",),
    "manager": ("EvictionRecord", "StorageArea"),
})
