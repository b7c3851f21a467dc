let twin_value = 2
