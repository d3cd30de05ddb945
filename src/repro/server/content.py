"""Deterministic content catalogs for the origin backends.

Replaces the paper's live commercial services: items, merchants,
restaurants, menus, and advisors are generated from a seed so every run
(and every test) sees identical data.  IDs are short hex strings in the
style of the paper's examples (``09cf``, ``556e``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, List, Tuple

_ADJECTIVES = [
    "silk", "coral", "amber", "ivory", "cobalt", "crimson", "olive",
    "slate", "pearl", "onyx", "maple", "cedar", "lunar", "polar",
]
_NOUNS = [
    "lantern", "harbor", "meadow", "canyon", "willow", "ember",
    "summit", "garden", "anchor", "breeze", "orchard", "prairie",
]


def filler(label: str, size: int) -> str:
    """Deterministic filler text of roughly ``size`` bytes.

    Backends pad JSON payloads with this so response wire sizes land in
    the ranges the paper reports (e.g. ~14 KB product-detail bodies).
    """
    if size <= 0:
        return ""
    unit = hashlib.sha1(label.encode()).hexdigest()
    repeats = size // len(unit) + 1
    return (unit * repeats)[:size]


def stable_id(*parts: Any) -> str:
    """Short deterministic hex id from the given parts."""
    digest = hashlib.sha1("|".join(str(p) for p in parts).encode()).hexdigest()
    return digest[:4]


def stable_name(*parts: Any) -> str:
    digest = hashlib.sha1(("name|" + "|".join(str(p) for p in parts)).encode()).digest()
    adjective = _ADJECTIVES[digest[0] % len(_ADJECTIVES)]
    noun = _NOUNS[digest[1] % len(_NOUNS)]
    return "{} {}".format(adjective.capitalize(), noun)


class Catalog:
    """Seeded catalog of everything the five backends serve."""

    def __init__(self, seed: int = 7) -> None:
        self.seed = seed
        #: flat records and id lists (``product``,
        #: ``related_product_ids``, ``restaurant``, ``restaurant_ids``,
        #: ``menu_item``, ``advisor``, ``advisor_ids``), the nested
        #: ``menu`` and ``image_size`` by (generator name, args), see
        #: :meth:`_memoised`: each is a pure function of (seed, args)
        #: over a bounded id space, so the memo needs no eviction, and
        #: each call gets a fresh copy (``menu`` down to its items, so
        #: one response body's mutation cannot leak into another).  The
        #: other nested records (merchant, option_group, ...) are not
        #: memoised.  Nor is the per-user ``product_ids`` feed, whose
        #: key space grows with the users.
        self._memo: Dict[Tuple[Any, ...], Any] = {}

    def _rng_for(self, *parts: Any) -> random.Random:
        return random.Random("{}|{}".format(self.seed, "|".join(str(p) for p in parts)))

    def _memoised(self, make: Callable[..., Any], *args: Any) -> Any:
        """``make(*args)``, generated once per (``make``, args)."""
        key = (make.__name__,) + args
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make(*args)
        return value

    # ------------------------------------------------------------------
    # shopping (Wish / Geek)
    # ------------------------------------------------------------------
    def product_ids(self, app: str, feed_version: int, count: int = 30, user: str = "") -> List[str]:
        """The rotating recommendation feed for one user."""
        rng = self._rng_for(app, "feed", feed_version, user)
        return [stable_id(app, "product", rng.randrange(10_000)) for _ in range(count)]

    def product(self, app: str, product_id: str) -> Dict[str, Any]:
        return dict(self._memoised(self._product, app, product_id))

    def _product(self, app: str, product_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "product", product_id)
        merchant_name = stable_name(app, "merchant", rng.randrange(200))
        return {
            "id": product_id,
            "name": stable_name(app, "product", product_id),
            "price": rng.randrange(3, 120),
            "can_ship": rng.random() < 0.9,
            "aspect_rat": round(rng.uniform(0.7, 1.4), 2),
            "merchant_name": merchant_name,
            "rating": round(rng.uniform(2.5, 5.0), 1),
            "num_bought": rng.randrange(10, 50_000),
        }

    def related_product_ids(self, app: str, product_id: str, count: int = 6) -> List[str]:
        return list(self._memoised(self._related_product_ids, app, product_id, count))

    def _related_product_ids(self, app: str, product_id: str, count: int) -> Tuple[str, ...]:
        rng = self._rng_for(app, "related", product_id)
        return tuple(stable_id(app, "product", rng.randrange(10_000)) for _ in range(count))

    def merchant(self, app: str, merchant_name: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "merchant", merchant_name)
        merchant_id = stable_id(app, "merchant", merchant_name)
        return {
            "id": merchant_id,
            "name": merchant_name,
            "profile_image": "/merchant-img/{}.png".format(merchant_id),
            "item_ids": [
                stable_id(app, "product", rng.randrange(10_000)) for _ in range(8)
            ],
        }

    def merchant_ratings(self, app: str, merchant_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "ratings", merchant_id)
        return {
            "merchant_id": merchant_id,
            "average": round(rng.uniform(3.0, 5.0), 2),
            "count": rng.randrange(5, 5_000),
            "recent": [
                {"stars": rng.randrange(1, 6), "comment": stable_name(app, merchant_id, i)}
                for i in range(5)
            ],
        }

    def group_buy(self, app: str, product_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "groupbuy", product_id)
        return {
            "product_id": product_id,
            "active": rng.random() < 0.4,
            "discount_pct": rng.randrange(5, 40),
            "participants": rng.randrange(0, 200),
        }

    # ------------------------------------------------------------------
    # food delivery (DoorDash / Postmates)
    # ------------------------------------------------------------------
    def restaurant_ids(self, app: str, region: str, count: int = 12) -> List[str]:
        return list(self._memoised(self._restaurant_ids, app, region, count))

    def _restaurant_ids(self, app: str, region: str, count: int) -> Tuple[str, ...]:
        rng = self._rng_for(app, "restaurants", region)
        return tuple(stable_id(app, "store", rng.randrange(5_000)) for _ in range(count))

    def restaurant(self, app: str, store_id: str) -> Dict[str, Any]:
        return dict(self._memoised(self._restaurant, app, store_id))

    def _restaurant(self, app: str, store_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "store", store_id)
        return {
            "id": store_id,
            "name": stable_name(app, "store", store_id) + " Kitchen",
            "cuisine": rng.choice(
                ["thai", "sushi", "burgers", "pizza", "tacos", "noodles", "salads"]
            ),
            "rating": round(rng.uniform(3.0, 5.0), 1),
            "delivery_fee": rng.randrange(0, 7),
            "eta_minutes": rng.randrange(15, 60),
            "image": "/store-img/{}.jpg".format(store_id),
        }

    def menu(self, app: str, store_id: str) -> Dict[str, Any]:
        menu = self._memoised(self._menu, app, store_id)
        return dict(
            menu,
            categories=[
                {"name": category["name"], "items": [dict(item) for item in category["items"]]}
                for category in menu["categories"]
            ],
        )

    def _menu(self, app: str, store_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "menu", store_id)
        categories = []
        for c in range(3):
            items = []
            for i in range(4):
                item_id = stable_id(app, "menu-item", store_id, c, i)
                items.append(
                    {
                        "id": item_id,
                        "name": stable_name(app, "dish", item_id),
                        "price": rng.randrange(4, 30),
                    }
                )
            categories.append(
                {"name": rng.choice(["Mains", "Sides", "Drinks", "Desserts"]), "items": items}
            )
        return {"id": stable_id(app, "menu", store_id), "store_id": store_id, "categories": categories}

    def menu_item(self, app: str, item_id: str) -> Dict[str, Any]:
        return dict(self._memoised(self._menu_item, app, item_id))

    def _menu_item(self, app: str, item_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "menu-item-detail", item_id)
        return {
            "id": item_id,
            "name": stable_name(app, "dish", item_id),
            "description": "A very {} dish".format(stable_name(app, item_id).lower()),
            "price": rng.randrange(4, 30),
            "calories": rng.randrange(150, 1400),
            "option_group": stable_id(app, "options", item_id),
        }

    def option_group(self, app: str, group_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "options", group_id)
        return {
            "id": group_id,
            "options": [
                {
                    "id": stable_id(app, "option", group_id, i),
                    "name": stable_name(app, "option", group_id, i),
                    "extra": rng.randrange(0, 4),
                }
                for i in range(4)
            ],
        }

    def suggestions(self, app: str, item_id: str, count: int = 6) -> List[str]:
        rng = self._rng_for(app, "suggest", item_id)
        return [stable_id(app, "menu-item", rng.randrange(5_000), 0, 0) for _ in range(count)]

    def schedule(self, app: str, store_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "schedule", store_id)
        open_hour = rng.randrange(7, 12)
        return {
            "store_id": store_id,
            "open": "{:02d}:00".format(open_hour),
            "close": "{:02d}:00".format(open_hour + rng.randrange(8, 13)),
            "days": ["mon", "tue", "wed", "thu", "fri", "sat", "sun"][: rng.randrange(5, 8)],
        }

    # ------------------------------------------------------------------
    # psychic reading (Purple Ocean)
    # ------------------------------------------------------------------
    def advisor_ids(self, app: str, count: int = 15) -> List[str]:
        return list(self._memoised(self._advisor_ids, app, count))

    def _advisor_ids(self, app: str, count: int) -> Tuple[str, ...]:
        rng = self._rng_for(app, "advisors")
        return tuple(stable_id(app, "advisor", rng.randrange(2_000)) for _ in range(count))

    def advisor(self, app: str, advisor_id: str) -> Dict[str, Any]:
        return dict(self._memoised(self._advisor, app, advisor_id))

    def _advisor(self, app: str, advisor_id: str) -> Dict[str, Any]:
        rng = self._rng_for(app, "advisor", advisor_id)
        return {
            "id": advisor_id,
            "login": "mystic_{}".format(advisor_id),
            "name": stable_name(app, "advisor", advisor_id),
            "specialty": rng.choice(
                ["tarot", "astrology", "dream analysis", "numerology", "palmistry"]
            ),
            "rate_per_minute": round(rng.uniform(0.99, 9.99), 2),
            "rating": round(rng.uniform(3.5, 5.0), 2),
            "profile_image": "/media/profile/{}.png".format(advisor_id),
            "video_still": "/media/still/{}.jpg".format(advisor_id),
        }

    # ------------------------------------------------------------------
    # binary content sizes (bytes)
    # ------------------------------------------------------------------
    def image_size(self, app: str, label: str, mean: int, spread: float = 0.25) -> int:
        return self._memoised(self._image_size, app, label, mean, spread)

    def _image_size(self, app: str, label: str, mean: int, spread: float) -> int:
        rng = self._rng_for(app, "imgsize", label)
        low = int(mean * (1 - spread))
        high = int(mean * (1 + spread))
        return rng.randrange(low, max(high, low + 1))
