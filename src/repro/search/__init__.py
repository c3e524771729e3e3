"""The three advanced search engines (paper Section 2.1).

All engines share one evaluation shape, straight from the paper: a MongoDB
aggregation pipeline whose *first* stage is ``$match`` (regex filters built
from stemmed query terms), followed by ``$project`` (keep only fields the
ranking needs), custom ``$function`` ranking stages (TF-IDF, match counts,
proximity, field weights), ``$sort``, and pagination at ten results per
page.

* :class:`TitleAbstractCaptionEngine` — three inclusive search fields
  (Section 2.1.1),
* :class:`AllFieldsEngine` — search over every publication field
  (Section 2.1.2, Figure 2),
* :class:`TableSearchEngine` — search over table captions and table data
  (Section 2.1.3, Figure 4).
"""

from repro.search.all_fields import AllFieldsEngine
from repro.search.engine import SearchResult, SearchResults
from repro.search.indexing import build_search_document
from repro.search.query import ParsedQuery, parse_query
from repro.search.ranking import RankingFunction
from repro.search.table_search import TableSearchEngine
from repro.search.title_abstract import TitleAbstractCaptionEngine

__all__ = [
    "AllFieldsEngine",
    "SearchResult",
    "SearchResults",
    "build_search_document",
    "ParsedQuery",
    "parse_query",
    "RankingFunction",
    "TableSearchEngine",
    "TitleAbstractCaptionEngine",
]
