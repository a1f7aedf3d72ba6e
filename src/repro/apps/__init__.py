"""Miniature ports of the applications integrated in §5.2.

- :mod:`repro.apps.diaspora` — social network (posts, friendships, ACLs)
- :mod:`repro.apps.discourse` — discussion board (topics, forum posts)
- :mod:`repro.apps.analyzer` — semantic analyzer decorating users with
  topics of interest (Textalytics stand-in)
- :mod:`repro.apps.spree` — e-commerce with the social product recommender
- :mod:`repro.apps.mailer` — notification mailer (the Fig 2 / Fig 9 one)
- :mod:`repro.apps.ecosystem` — wires them all per Fig 11
- :mod:`repro.apps.pair` — the one-model publisher -> replica pair every
  scenario and demo drives
"""

from repro.apps.ecosystem import SocialEcosystem, build_social_ecosystem
from repro.apps.pair import build_replicated_pair

__all__ = ["SocialEcosystem", "build_replicated_pair", "build_social_ecosystem"]
