"""Frozen reference strings for the template converters.

Domain sentences follow the schema's domain order (attraction, hotel,
restaurant, taxi, train) whatever the order of the state dict; within a domain
the flat format follows entry order, so the dicts below are written in the
order the flat summaries expect.
"""

from statesum import TemplateConfig

ATTRACTION_STATE = {
    "attraction-name": "byard art",
    "attraction-type": "museum",
    "attraction-area": "center",
}
ATTRACTION_SUMMARY = (
    "The user is looking for an attraction called byard art "
    "which is a museum located in the center."
)

DONTCARE_STATE = {"attraction-type": "museum", "attraction-area": "dontcare"}
DONTCARE_SUMMARY = (
    "The user is looking for an attraction which is a museum, "
    "and he does not care about the location."
)

SINGLE_DOMAIN_GOLDENS = [
    (
        "taxi",
        {
            "taxi-departure": "london station",
            "taxi-destination": "Incheon airport",
            "taxi-arriveby": "12:30",
            "taxi-leaveat": "02:45",
        },
        "The user is looking for a taxi from london station to Incheon airport, "
        "which leaves at 02:45 and arrives by 12:30.",
    ),
    (
        "train",
        {
            "train-departure": "norwich",
            "train-destination": "cambridge",
            "train-arriveby": "19:45",
            "train-book people": "3",
            "train-leaveat": "11:21",
            "train-day": "monday",
        },
        "The user is looking for a train for 3 people from norwich to cambridge "
        "on monday, which leaves at 11:21 and arrives by 19:45.",
    ),
    (
        "hotel",
        {
            "hotel-type": "hotel",
            "hotel-name": "Intercontinental",
            "hotel-stars": "3",
            "hotel-pricerange": "cheap",
            "hotel-area": "east",
            "hotel-book people": "6",
            "hotel-book day": "saturday",
            "hotel-book stay": "3",
            "hotel-parking": "yes",
            "hotel-internet": "no",
        },
        "The user is looking for a place to stay which is a hotel called "
        "Intercontinental ranked 3 stars with a cheap price located in the east "
        "for 6 people on saturday for 3 days, which has parking and has no internet.",
    ),
    (
        "attraction",
        {
            "attraction-area": "cambridge",
            "attraction-name": "nusha",
            "attraction-type": "entertainment",
        },
        "The user is looking for an attraction which is an entertainment "
        "called nusha located in the cambridge.",
    ),
    (
        "restaurant",
        {
            "restaurant-book day": "tuesday",
            "restaurant-book people": "6",
            "restaurant-book time": "12:00",
            "restaurant-name": "meze bar",
            "restaurant-pricerange": "cheap",
            "restaurant-area": "south",
            "restaurant-food": "seafood",
        },
        "The user is looking for a restaurant called meze bar located in the south "
        "with a cheap price for 6 people on tuesday at 12:00, which serves seafood.",
    ),
]

MULTI_DOMAIN_STATE = {
    "train-book people": "3",
    "train-departure": "london station",
    "train-destination": "Incheon airport",
    "restaurant-name": "meze bar",
    "restaurant-book day": "tuesday",
    "restaurant-book time": "12:00",
    "hotel-type": "guesthouse",
    "hotel-name": "Intercontinental",
    "hotel-stars": "3",
}
# The state lists train first; the summary follows the schema's domain order.
MULTI_DOMAIN_SUMMARY = (
    "The user is looking for a place to stay which is a guesthouse called "
    "Intercontinental ranked 3 stars. Also, he is searching for a restaurant "
    "called meze bar on tuesday at 12:00. Also, he looks for a train for 3 "
    "people from london station to Incheon airport."
)

VARIANT_SAMPLE_STATE = {
    "hotel-area": "dontcare",
    "hotel-pricerange": "moderate",
    "hotel-internet": "yes",
    "hotel-type": "guesthouse",
    "train-book people": "3",
    "train-leaveat": "10:30",
    "train-destination": "cambridge",
    "train-day": "tuesday",
    "train-departure": "kings lynn",
}

_HOTEL_PART = (
    "The user is looking for a place to stay which is a guesthouse "
    "with a moderate price, which has internet"
)
_TRAIN_PART = (
    "a train for 3 people from kings lynn to cambridge on tuesday, "
    "which leaves at 10:30."
)

VARIANT_GOLDENS = [
    (
        TemplateConfig(paraphrasing=True, dontcare_concat=True),
        f"{_HOTEL_PART}, and he does not care about the location. "
        f"Also, he is searching for {_TRAIN_PART}",
    ),
    (
        TemplateConfig(paraphrasing=False, dontcare_concat=True),
        f"{_HOTEL_PART}, and the user does not care about the location. "
        f"Also, the user is looking for {_TRAIN_PART}",
    ),
    (
        TemplateConfig(paraphrasing=True, dontcare_concat=False),
        f"{_HOTEL_PART}. He does not care about the location. "
        f"Also, he is searching for {_TRAIN_PART}",
    ),
    (
        TemplateConfig(paraphrasing=False, dontcare_concat=False),
        f"{_HOTEL_PART}. The user does not care about the location. "
        f"Also, the user is looking for {_TRAIN_PART}",
    ),
]

UNNATURAL_SUMMARY = (
    "The user wants dontcare as area of hotel, moderate as pricerange of hotel, "
    "yes as internet of hotel, guesthouse as type of hotel, 3 as book people of train, "
    "10:30 as leaveat of train, cambridge as destination of train, "
    "tuesday as day of train, kings lynn as departure of train."
)

# Published dialogue counts for the version 2.1 training set:
# domain -> (single-domain dialogues, dialogues containing the domain).
TRAIN_DOMAIN_COUNTS = {
    "hotel": (513, 3381),
    "taxi": (325, 1654),
    "attraction": (127, 2717),
    "restaurant": (1197, 3813),
    "train": (275, 3103),
}
